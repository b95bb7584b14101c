// Elastic runtime rescaling acceptance tests (DESIGN.md §14):
//  (a) the ScalingController's decision rule: EWMA smoothing, hysteresis
//      band, sustain counters, cooldown, plan serialization, bounds;
//  (b) rack-aware placement: locality first, least-loaded tiebreak;
//  (c) keyed-cell merge + re-split: ownership by key % n, byte stability;
//  (d) eligibility (op_rescalable) and the setup-time config validation;
//  (e) a live bursty run executes scale-ups AND scale-downs while staying
//      exactly-once at the sink, with keyed state conserved across every
//      migration and zero recoveries;
//  (f) crash-recovery composes with a committed rescale (restore targets
//      the migrated images and the post-rescale topology);
//  (g) zero-overhead contract: with elasticity off, reports are
//      bit-identical to a never-configured run;
//  (h) rescaling an all-grouped stream's destination rebuilds (grow) or
//      repairs (shrink) its multicast group under Whale, Whale-WOC-RDMA
//      and RDMC;
//  (i) with metrics on, each elastic.* counter equals its report field;
//      one plan is in flight engine-wide, so operators that plan at the
//      same poll rescale one after the other.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "elastic/controller.h"
#include "elastic/keyed.h"
#include "elastic/placement.h"
#include "state/state_store.h"

namespace whale::core {
namespace {

// --- (a) ScalingController ------------------------------------------------

elastic::ElasticConfig aggressive_cfg() {
  elastic::ElasticConfig c;
  c.enabled = true;
  c.poll_interval = ms(5);
  c.up_backlog = 0.25;
  c.down_backlog = 0.02;
  c.sustain_up = 2;
  c.sustain_down = 3;
  c.cooldown = ms(50);
  c.ewma_alpha = 1.0;  // unit tests drive the raw signal directly
  c.step = 1;
  c.min_parallelism = 1;
  c.max_parallelism = 8;
  return c;
}

TEST(ScalingController, FirstSampleSeedsTheEwma) {
  auto c = aggressive_cfg();
  c.ewma_alpha = 0.5;
  elastic::ScalingController sc(c, /*op=*/1, /*parallelism=*/2);
  sc.on_sample(0.8, ms(1));
  EXPECT_DOUBLE_EQ(sc.backlog_ewma(), 0.8);  // seeded, not 0.5 * 0.8
  sc.on_sample(0.4, ms(2));
  EXPECT_DOUBLE_EQ(sc.backlog_ewma(), 0.6);
  EXPECT_EQ(sc.polls(), 2u);
}

TEST(ScalingController, SustainedBacklogIssuesGrowPlan) {
  elastic::ScalingController sc(aggressive_cfg(), 1, 2);
  EXPECT_FALSE(sc.on_sample(0.5, ms(5)).has_value());  // sustain 1 of 2
  const auto plan = sc.on_sample(0.5, ms(10));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->op, 1);
  EXPECT_EQ(plan->from, 2);
  EXPECT_EQ(plan->to, 3);
  EXPECT_EQ(plan->delta, 1);
  EXPECT_DOUBLE_EQ(plan->backlog, 0.5);
  EXPECT_TRUE(sc.pending());
}

TEST(ScalingController, HysteresisBandResetsBothSustainCounters) {
  elastic::ScalingController sc(aggressive_cfg(), 1, 2);
  sc.on_sample(0.5, ms(5));                             // up sustain = 1
  EXPECT_FALSE(sc.on_sample(0.1, ms(10)).has_value());  // in band: reset
  EXPECT_FALSE(sc.on_sample(0.5, ms(15)).has_value());  // up sustain = 1
  EXPECT_TRUE(sc.on_sample(0.5, ms(20)).has_value());   // up sustain = 2
}

TEST(ScalingController, PendingPlanSerializesDecisions) {
  elastic::ScalingController sc(aggressive_cfg(), 1, 2);
  sc.on_sample(0.5, ms(5));
  ASSERT_TRUE(sc.on_sample(0.5, ms(10)).has_value());
  // However loud the gauges, a pending plan holds further decisions.
  EXPECT_FALSE(sc.on_sample(0.9, ms(15)).has_value());
  EXPECT_FALSE(sc.on_sample(0.9, ms(20)).has_value());
  sc.confirm(3, ms(25));
  EXPECT_FALSE(sc.pending());
  EXPECT_EQ(sc.parallelism(), 3);
}

TEST(ScalingController, CooldownHoldsAfterConfirmAndAfterAbort) {
  elastic::ScalingController sc(aggressive_cfg(), 1, 2);
  sc.on_sample(0.5, ms(5));
  ASSERT_TRUE(sc.on_sample(0.5, ms(10)).has_value());
  sc.confirm(3, ms(20));
  // Backlog stays hot, but the 50 ms cooldown gates re-issue.
  EXPECT_FALSE(sc.on_sample(0.9, ms(30)).has_value());
  EXPECT_FALSE(sc.on_sample(0.9, ms(60)).has_value());  // sustain restarts
  EXPECT_TRUE(sc.on_sample(0.9, ms(75)).has_value());   // past cooldown
  sc.abort(ms(80));
  EXPECT_FALSE(sc.pending());
  EXPECT_FALSE(sc.on_sample(0.9, ms(100)).has_value());  // abort cools too
}

TEST(ScalingController, BoundsClampGrowAndShrink) {
  auto cfg = aggressive_cfg();
  cfg.min_parallelism = 2;
  cfg.max_parallelism = 3;
  cfg.sustain_down = 1;
  elastic::ScalingController sc(cfg, 1, 3);
  // At the ceiling: sustained backlog issues nothing.
  sc.on_sample(0.9, ms(5));
  EXPECT_FALSE(sc.on_sample(0.9, ms(10)).has_value());
  // Shrink to the floor, then no further.
  const auto down = sc.on_sample(0.0, ms(15));
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->to, 2);
  EXPECT_EQ(down->delta, -1);
  sc.confirm(2, ms(20));
  EXPECT_FALSE(sc.on_sample(0.0, ms(100)).has_value());  // at min_parallelism
}

TEST(ScalingController, ZeroMaxParallelismMeansOneStepHeadroom) {
  auto cfg = aggressive_cfg();
  cfg.max_parallelism = 0;
  elastic::ScalingController sc(cfg, 1, 4);
  sc.on_sample(0.5, ms(5));
  const auto plan = sc.on_sample(0.5, ms(10));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->to, 5);
  // The headroom is measured from the build-time 4, not the live 5: a
  // sustained backlog past the cooldown plans nothing more.
  sc.confirm(5, ms(20));
  sc.on_sample(0.9, ms(80));
  EXPECT_FALSE(sc.on_sample(0.9, ms(85)).has_value());
}

// --- (b) Placement ---------------------------------------------------------

net::ClusterSpec racked_cluster(int nodes, int racks) {
  net::ClusterSpec c;
  c.num_nodes = nodes;
  c.num_racks = racks;
  return c;
}

TEST(Placement, PrefersRacksAlreadyHostingTheOperator) {
  // 6 nodes, 3 racks: {0,1} {2,3} {4,5}. Peers on 2 and 3 make rack 1 the
  // densest; node 2 is more loaded than 3, so 3 wins.
  const auto cluster = racked_cluster(6, 3);
  elastic::Placement p(cluster);
  EXPECT_EQ(p.pick({2, 3}, {0, 0, 5, 1, 0, 0}), 3);
}

TEST(Placement, LeastLoadedThenLowestIdWithinTheRack) {
  const auto cluster = racked_cluster(6, 3);
  elastic::Placement p(cluster);
  // Equal load inside rack 2 -> lowest node id.
  EXPECT_EQ(p.pick({4, 5}, {9, 9, 9, 9, 2, 2}), 4);
  // No peers anywhere -> globally least-loaded, id as final tiebreak.
  EXPECT_EQ(p.pick({}, {3, 1, 1, 3, 3, 3}), 1);
}

// --- (c) keyed split -------------------------------------------------------

std::vector<uint8_t> keyed_body(std::vector<elastic::KeyedEntry> entries) {
  ByteWriter w(64);
  elastic::write_keyed_body(w, std::move(entries));
  return w.take();
}

std::vector<uint8_t> payload_of(uint64_t v) {
  ByteWriter w(8);
  w.put_u64(v);
  return w.take();
}

TEST(KeyedSplit, MergesAndResplitsByKeyModN) {
  const auto a = keyed_body({{0, payload_of(10)}, {3, payload_of(13)}});
  const auto b = keyed_body({{1, payload_of(11)},
                             {4, payload_of(14)},
                             {5, payload_of(15)}});
  elastic::SplitStats stats;
  const auto split = elastic::split_keyed_cell({a, b}, 3, &stats);
  ASSERT_EQ(split.size(), 3u);
  EXPECT_EQ(stats.entries, 5u);
  EXPECT_GT(stats.bytes, 0u);
  for (size_t i = 0; i < 3; ++i) {
    ByteReader r(split[i]);
    for (const auto& e : elastic::read_keyed_body(r)) {
      EXPECT_EQ(e.key % 3, i);
      ByteReader pr(e.payload);
      EXPECT_EQ(pr.get_u64(), 10u + e.key);  // payloads ride untouched
    }
  }
}

TEST(KeyedSplit, ByteStableRegardlessOfSourceOrder) {
  const auto a = keyed_body({{7, payload_of(1)}, {2, payload_of(2)}});
  const auto b = keyed_body({{9, payload_of(3)}});
  EXPECT_EQ(elastic::split_keyed_cell({a, b}, 2),
            elastic::split_keyed_cell({b, a}, 2));
}

TEST(KeyedSplit, EmptyInputYieldsParsableEmptyBodies) {
  const auto split = elastic::split_keyed_cell({}, 4);
  ASSERT_EQ(split.size(), 4u);
  for (const auto& body : split) {
    ByteReader r(body);
    EXPECT_TRUE(elastic::read_keyed_body(r).empty());
  }
}

// --- shared engine fixtures ------------------------------------------------

// Emits sequential ids and checkpoints the cursor.
class SeqSpout : public dsps::Spout {
 public:
  dsps::Tuple next(Rng&) override {
    dsps::Tuple t;
    t.values.emplace_back(seq_++);
    return t;
  }
  void register_state(whale::state::StateStore& store) override {
    store.register_cell(
        "seq", [this](ByteWriter& w) { w.put_i64(seq_); },
        [this](ByteReader& r) { seq_ = r.get_i64(); });
  }
  int64_t emitted() const { return seq_; }

 private:
  int64_t seq_ = 0;
};

// Rescalable middle operator: tallies per-key applications in a keyed
// cell (key = the fields-grouping hash of the id, i.e. exactly what the
// upstream routing partitions by) and forwards the tuple.
class KeyedTallyBolt : public dsps::Bolt {
 public:
  explicit KeyedTallyBolt(Duration cost) : cost_(cost) {}
  void prepare(const dsps::TaskContext& ctx) override { ctx_ = ctx; }
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override {
    ++tally_[dsps::value_hash(t.values[0])];
    out.emit(t);
    return cost_;
  }
  void register_state(whale::state::StateStore& store) override {
    store.register_cell(
        std::string(elastic::kKeyedCellPrefix) + "tally",
        [this](ByteWriter& w) {
          std::vector<elastic::KeyedEntry> entries;
          entries.reserve(tally_.size());
          for (const auto& [k, v] : tally_) {
            ByteWriter pw(8);
            pw.put_u64(v);
            entries.push_back(elastic::KeyedEntry{k, pw.take()});
          }
          elastic::write_keyed_body(w, std::move(entries));
        },
        [this](ByteReader& r) {
          tally_.clear();
          for (const auto& e : elastic::read_keyed_body(r)) {
            ByteReader pr(e.payload);
            tally_[e.key] = pr.get_u64();
          }
        });
  }
  void rescaled(const dsps::TaskContext& ctx) override {
    ctx_ = ctx;
    ++rescaled_calls_;
  }

  const dsps::TaskContext& ctx() const { return ctx_; }
  const std::map<uint64_t, uint64_t>& tally() const { return tally_; }
  int rescaled_calls() const { return rescaled_calls_; }

 private:
  Duration cost_;
  dsps::TaskContext ctx_;
  std::map<uint64_t, uint64_t> tally_;
  int rescaled_calls_ = 0;
};

// Sink counting how often each sequence number was applied; its cell is
// deliberately NOT keyed, so the sink can never be rescaled.
class CountingSink : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple& t, dsps::Emitter&) override {
    ++counts_[t.as_int(0)];
    return us(3);
  }
  void register_state(whale::state::StateStore& store) override {
    store.register_cell(
        "counts",
        [this](ByteWriter& w) {
          w.put_varint(counts_.size());
          for (const auto& [k, v] : counts_) {
            w.put_i64(k);
            w.put_u64(v);
          }
        },
        [this](ByteReader& r) {
          counts_.clear();
          const uint64_t n = r.get_varint();
          for (uint64_t i = 0; i < n; ++i) {
            const int64_t k = r.get_i64();
            counts_[k] = r.get_u64();
          }
        });
  }
  const std::map<int64_t, uint64_t>& counts() const { return counts_; }

 private:
  std::map<int64_t, uint64_t> counts_;
};

class NopBolt : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple&, dsps::Emitter&) override {
    return us(2);
  }
};

struct Handles {
  SeqSpout* spout = nullptr;
  std::vector<KeyedTallyBolt*> tallies;  // creation order = task spawn order
  CountingSink* sink = nullptr;
};

// s --fields--> tally(P) --shuffle--> sink. The tally operator is the
// rescalable one; the spout and the plainly-stateful sink never move.
dsps::Topology elastic_topo(dsps::RateProfile rate, int tally_parallelism,
                            Duration tally_cost, Handles* h) {
  dsps::TopologyBuilder b;
  const int s = b.add_spout(
      "s",
      [h] {
        auto sp = std::make_unique<SeqSpout>();
        if (h) h->spout = sp.get();
        return sp;
      },
      1, std::move(rate));
  const int m = b.add_bolt(
      "tally",
      [h, tally_cost] {
        auto t = std::make_unique<KeyedTallyBolt>(tally_cost);
        if (h) h->tallies.push_back(t.get());
        return t;
      },
      tally_parallelism);
  const int k = b.add_bolt(
      "sink",
      [h] {
        auto sk = std::make_unique<CountingSink>();
        if (h) h->sink = sk.get();
        return sk;
      },
      1);
  b.connect(s, m, dsps::Grouping::kFields, /*key_field=*/0);
  b.connect(m, k, dsps::Grouping::kShuffle);
  return b.build();
}

EngineConfig elastic_cfg(int nodes) {
  EngineConfig c;
  c.cluster.num_nodes = nodes;
  c.variant = SystemVariant::Whale();
  c.seed = 7;
  // Small executor queues make the fill fraction a sensitive gauge; the
  // 50 ms epoch cadence leaves room for barrier alignment behind the
  // burst backlog (a wedged epoch is aborted after one interval).
  c.executor_queue_capacity = 1024;
  c.transfer_queue_capacity = 65536;
  c.state.enabled = true;
  c.state.checkpoint_interval = ms(50);
  c.elastic.enabled = true;
  c.elastic.poll_interval = ms(5);
  c.elastic.up_backlog = 0.02;
  c.elastic.down_backlog = 0.002;
  c.elastic.sustain_up = 2;
  c.elastic.sustain_down = 4;
  c.elastic.cooldown = ms(60);
  c.elastic.ewma_alpha = 0.5;
  c.elastic.step = 1;
  c.elastic.min_parallelism = 2;
  c.elastic.max_parallelism = 4;
  return c;
}

// --- (d) eligibility & validation -----------------------------------------

TEST(ElasticEligibility, PerOperatorRulesArePinned) {
  dsps::TopologyBuilder b;
  const int s = b.add_spout(
      "s", [] { return std::make_unique<SeqSpout>(); }, 1,
      dsps::RateProfile::constant(100.0));
  const int src = b.add_bolt(
      "bcast_src", [] { return std::make_unique<NopBolt>(); }, 1);
  const int dst = b.add_bolt(
      "bcast_dst", [] { return std::make_unique<NopBolt>(); }, 2);
  const int keyed = b.add_bolt(
      "keyed", [] { return std::make_unique<KeyedTallyBolt>(us(5)); }, 2);
  const int sink = b.add_bolt(
      "sink", [] { return std::make_unique<CountingSink>(); }, 1);
  b.connect(s, src, dsps::Grouping::kShuffle);
  b.connect(src, dst, dsps::Grouping::kAll);
  b.connect(dst, keyed, dsps::Grouping::kFields, 0);
  b.connect(keyed, sink, dsps::Grouping::kShuffle);

  EngineConfig c = elastic_cfg(4);
  Engine e(c, b.build());
  EXPECT_FALSE(e.op_rescalable(s));      // spouts own the arrival state
  EXPECT_FALSE(e.op_rescalable(src));    // all-grouped source stays at 1
  EXPECT_TRUE(e.op_rescalable(dst));     // stateless: nothing to migrate
  EXPECT_TRUE(e.op_rescalable(keyed));   // keyed cells re-split cleanly
  EXPECT_FALSE(e.op_rescalable(sink));   // plain cell cannot migrate
}

TEST(ElasticSetup, RejectsConfigsTheProtocolCannotHonor) {
  Handles h;
  const auto topo = [&h] {
    return elastic_topo(dsps::RateProfile::constant(100.0), 2, us(5), &h);
  };
  {
    EngineConfig c = elastic_cfg(4);
    c.state.enabled = false;  // no epochs -> no quiesce points
    EXPECT_THROW(Engine(c, topo()), std::invalid_argument);
  }
  {
    EngineConfig c = elastic_cfg(4);
    c.state.unaligned = true;  // capture window leaks past the cutover
    EXPECT_THROW(Engine(c, topo()), std::invalid_argument);
  }
  {
    EngineConfig c = elastic_cfg(4);
    c.state.remote = true;  // migration merges live local stores
    EXPECT_THROW(Engine(c, topo()), std::invalid_argument);
  }
  // Refused by name: the run would crash, hang or never rescale.
  auto refused = [&topo](const EngineConfig& c, const char* field) {
    try {
      Engine e(c, topo());
    } catch (const std::invalid_argument& ex) {
      return std::string(ex.what()).find(field) != std::string::npos;
    }
    return false;
  };
  {
    EngineConfig c = elastic_cfg(4);
    c.elastic.min_parallelism = 0;  // a shrink to 0 re-splits by key % 0
    EXPECT_TRUE(refused(c, "elastic.min_parallelism"));
  }
  {
    EngineConfig c = elastic_cfg(4);
    c.elastic.poll_interval = 0;  // the poll re-arms at the same instant
    EXPECT_TRUE(refused(c, "elastic.poll_interval"));
  }
  {
    EngineConfig c = elastic_cfg(4);
    c.elastic.step = 0;  // controllers poll but never plan
    EXPECT_TRUE(refused(c, "elastic.step"));
  }
}

// --- (e) live rescale integration ------------------------------------------

TEST(ElasticRescale, BurstyRunScalesBothWaysExactlyOnce) {
  // 650 ms window: lull (300/s) -> burst (5000/s, saturating 2 instances
  // at 500 us/tuple) -> lull -> burst -> lull, stopping emission 100 ms
  // before the end so the pipeline drains.
  auto rate = dsps::RateProfile::constant(300.0);
  rate.then_at(ms(150), 8000.0)
      .then_at(ms(300), 300.0)
      .then_at(ms(450), 8000.0)
      .then_at(ms(600), 300.0)
      .then_at(ms(650), 0.0);

  Handles h;
  EngineConfig c = elastic_cfg(4);
  Engine e(c, elastic_topo(std::move(rate), 2, us(300), &h));
  const RunReport& r = e.run(ms(50), ms(700));

  ASSERT_NE(h.spout, nullptr);
  ASSERT_NE(h.sink, nullptr);

  // Both rescale directions actually executed, with zero recoveries and
  // zero structural losses.
  EXPECT_TRUE(r.elastic.enabled);
  EXPECT_GE(r.elastic.scale_ups, 1u) << "burst never forced a grow";
  EXPECT_GE(r.elastic.scale_downs, 1u) << "lull never forced a shrink";
  EXPECT_EQ(r.elastic.stale_drops, 0u);
  EXPECT_EQ(r.checkpoint_recoveries, 0u);
  EXPECT_EQ(r.input_drops, 0u);
  EXPECT_EQ(r.queue_rejects, 0u);
  EXPECT_EQ(r.tuples_lost, 0u);
  EXPECT_GT(r.elastic.keyed_entries_moved, 0u);
  EXPECT_GT(r.elastic.state_bytes_moved, 0u);
  EXPECT_GT(r.elastic.migration_stall_max, 0);
  ASSERT_EQ(r.elastic.episodes.size(),
            r.elastic.scale_ups + r.elastic.scale_downs);
  for (const auto& ep : r.elastic.episodes) {
    EXPECT_EQ(ep.to - ep.from, ep.to > ep.from ? 1 : -1);
    EXPECT_GT(ep.stall, 0);
  }

  // Exactly-once at the sink: every sequence number applied exactly once,
  // across every migration.
  const auto& counts = h.sink->counts();
  EXPECT_EQ(counts.size(), static_cast<size_t>(h.spout->emitted()));
  for (const auto& [seq, n] : counts) {
    EXPECT_EQ(n, 1u) << "sequence " << seq << " applied " << n << " times";
  }

  // Keyed-state conservation: the per-key tallies of the ACTIVE instances
  // sum to exactly the number of tuples processed (retired instances'
  // slices were merged into the survivors), and every active instance
  // holds only keys its post-rescale ownership predicate claims.
  uint64_t tallied = 0;
  int active_instances = 0;
  for (const KeyedTallyBolt* bolt : h.tallies) {
    if (!e.task_active(bolt->ctx().task_id)) continue;
    ++active_instances;
    const int p = bolt->ctx().parallelism;
    const int i = bolt->ctx().instance_index;
    EXPECT_EQ(p, e.op_parallelism(1));
    for (const auto& [key, n] : bolt->tally()) {
      EXPECT_EQ(key % static_cast<uint64_t>(p), static_cast<uint64_t>(i));
      tallied += n;
    }
  }
  EXPECT_EQ(active_instances, e.op_parallelism(1));
  EXPECT_EQ(tallied, static_cast<uint64_t>(h.spout->emitted()));
  // Growth spawned fresh instances beyond the initial 2.
  EXPECT_GT(h.tallies.size(), 2u);
  EXPECT_EQ(r.elastic.instances_spawned,
            static_cast<uint64_t>(h.tallies.size()) - 2u);
}

TEST(ElasticRescale, DeterministicAcrossRuns) {
  auto once = [] {
    auto rate = dsps::RateProfile::constant(300.0);
    rate.then_at(ms(150), 8000.0).then_at(ms(300), 300.0).then_at(ms(450), 0.0);
    Handles h;
    EngineConfig c = elastic_cfg(4);
    Engine e(c, elastic_topo(std::move(rate), 2, us(300), &h));
    const RunReport& r = e.run(ms(50), ms(500));
    return std::make_pair(r.fingerprint(), r.elastic.episodes.size());
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GE(a.second, 1u);
}

// --- (f) recovery composes with a committed rescale ------------------------

TEST(ElasticRescale, CrashAfterRescaleRestoresMigratedImages) {
  // One burst forces a grow; after its cooldown-quiet period a node
  // crashes. Recovery must restore the post-rescale topology from the
  // migrated committed images — and stay exactly-once.
  auto rate = dsps::RateProfile::constant(300.0);
  rate.then_at(ms(150), 8000.0).then_at(ms(300), 300.0).then_at(ms(430), 0.0);

  Handles h;
  EngineConfig c = elastic_cfg(4);
  c.seed = 23;
  c.state.store_write_latency = ms(2);
  c.faults.crash(/*node=*/3, /*at=*/ms(440), /*restart_after=*/ms(80));
  Engine e(c, elastic_topo(std::move(rate), 2, us(300), &h));
  const RunReport& r = e.run(ms(50), ms(650));

  EXPECT_GE(r.elastic.scale_ups, 1u);
  EXPECT_EQ(r.node_crashes, 1u);
  EXPECT_EQ(r.checkpoint_recoveries, 1u);
  EXPECT_EQ(r.input_drops, 0u);
  EXPECT_EQ(r.queue_rejects, 0u);
  const auto& counts = h.sink->counts();
  EXPECT_EQ(counts.size(), static_cast<size_t>(h.spout->emitted()));
  for (const auto& [seq, n] : counts) {
    EXPECT_EQ(n, 1u) << "sequence " << seq << " applied " << n << " times";
  }
}

// --- (h) a broadcast destination rescales its multicast group --------------

// Stateless bolt that forwards every tuple after `cost` of work and keeps
// its context, so a test can see which worker hosts each instance.
class ForwardBolt : public dsps::Bolt {
 public:
  explicit ForwardBolt(Duration cost) : cost_(cost) {}
  void prepare(const dsps::TaskContext& ctx) override { ctx_ = ctx; }
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override {
    out.emit(t);
    return cost_;
  }
  const dsps::TaskContext& ctx() const { return ctx_; }

 private:
  Duration cost_;
  dsps::TaskContext ctx_;
};

TEST(ElasticRescale, BroadcastDestinationGrowsAndShrinks) {
  // s -> fwd(1) =all=> dst(2) -> sink. The rescalable operator is the
  // all-grouped stream's destination, so each rescale rebuilds (grow) or
  // repairs (shrink) the multicast group: worker endpoints under Whale and
  // Whale-WOC-RDMA, task endpoints under RDMC.
  for (const SystemVariant& v : {SystemVariant::Whale(),
                                 SystemVariant::WhaleWocRdma(),
                                 SystemVariant::Rdmc()}) {
    SCOPED_TRACE(v.name());
    auto rate = dsps::RateProfile::constant(300.0);
    rate.then_at(ms(150), 6000.0)
        .then_at(ms(300), 300.0)
        .then_at(ms(450), 6000.0)
        .then_at(ms(600), 100.0)
        .then_at(ms(1100), 0.0);
    ForwardBolt* fwd = nullptr;
    std::vector<ForwardBolt*> dsts;  // creation order = task spawn order
    dsps::TopologyBuilder b;
    const int s = b.add_spout(
        "s", [] { return std::make_unique<SeqSpout>(); }, 1, std::move(rate));
    const int f = b.add_bolt(
        "fwd",
        [&fwd] {
          auto bolt = std::make_unique<ForwardBolt>(us(5));
          fwd = bolt.get();
          return bolt;
        },
        1);
    const int d = b.add_bolt(
        "dst",
        [&dsts] {
          auto bolt = std::make_unique<ForwardBolt>(us(300));
          dsts.push_back(bolt.get());
          return bolt;
        },
        2);
    const int k = b.add_bolt(
        "sink", [] { return std::make_unique<NopBolt>(); }, 1);
    b.connect(s, f, dsps::Grouping::kShuffle);
    b.connect(f, d, dsps::Grouping::kAll);
    b.connect(d, k, dsps::Grouping::kShuffle);

    EngineConfig c = elastic_cfg(6);
    c.variant = v;
    Engine e(c, b.build());
    const RunReport& r = e.run(ms(50), ms(1200));

    EXPECT_GE(r.elastic.scale_ups, 1u) << "burst never forced a grow";
    EXPECT_GE(r.elastic.scale_downs, 1u) << "lull never forced a shrink";
    EXPECT_EQ(r.elastic.stale_drops, 0u);
    EXPECT_EQ(r.tuples_lost, 0u);
    ASSERT_EQ(e.num_mcast_groups(), 1u);
    const auto& tree = e.group_tree(0);
    EXPECT_EQ(tree.validate(e.group_dstar(0)), "");

    // The tree's live nodes are exactly the hosts of the live destination
    // instances: the workers other than the source's for worker-level
    // groups, the instances themselves for RDMC.
    ASSERT_NE(fwd, nullptr);
    std::set<int> workers;
    int live = 0;
    for (const ForwardBolt* bolt : dsts) {
      if (!e.task_active(bolt->ctx().task_id)) continue;
      ++live;
      if (bolt->ctx().worker != fwd->ctx().worker) {
        workers.insert(bolt->ctx().worker);
      }
    }
    EXPECT_EQ(live, e.op_parallelism(d));
    const int hosts = v.comm == CommMode::kWorker
                          ? static_cast<int>(workers.size())
                          : live;
    EXPECT_EQ(tree.num_destinations() - tree.num_removed(), hosts);
  }
}

// --- (i) obs counters and engine-wide plan serialization -------------------

TEST(ElasticRescale, MetricsCountEachEventOnce) {
  // BurstyRunScalesBothWaysExactlyOnce's run with metrics on: every
  // elastic.* counter equals its report field, the parallelism gauge ends
  // at the operator's live parallelism, and spawned tasks export their
  // in-queue gauge like build-time tasks.
  auto rate = dsps::RateProfile::constant(300.0);
  rate.then_at(ms(150), 8000.0)
      .then_at(ms(300), 300.0)
      .then_at(ms(450), 8000.0)
      .then_at(ms(600), 300.0)
      .then_at(ms(650), 0.0);
  Handles h;
  EngineConfig c = elastic_cfg(4);
  c.obs.metrics_enabled = true;
  Engine e(c, elastic_topo(std::move(rate), 2, us(300), &h));
  const RunReport& r = e.run(ms(50), ms(700));
  const auto& el = r.elastic;
  EXPECT_EQ(el.polls, 150u);
  EXPECT_EQ(el.scale_ups, 2u);
  EXPECT_EQ(el.scale_downs, 2u);
  EXPECT_EQ(el.rescales_canceled, 0u);
  EXPECT_EQ(el.state_bytes_moved, 45'328u);
  EXPECT_EQ(el.stale_drops, 0u);

  const obs::MetricsRegistry& m = e.metrics();
  const std::pair<const char*, uint64_t> counters[] = {
      {"elastic.polls", el.polls},
      {"elastic.scale_ups", el.scale_ups},
      {"elastic.scale_downs", el.scale_downs},
      {"elastic.rescales_canceled", el.rescales_canceled},
      {"elastic.state_bytes_moved", el.state_bytes_moved},
      {"elastic.stale_drops", el.stale_drops},
  };
  for (const auto& [name, value] : counters) {
    SCOPED_TRACE(name);
    const obs::Counter* ctr = m.find_counter(name);
    ASSERT_NE(ctr, nullptr);
    EXPECT_EQ(ctr->value(), value);
  }
  const auto* par = m.series("elastic.op1.parallelism");
  ASSERT_NE(par, nullptr);
  ASSERT_FALSE(par->empty());
  EXPECT_EQ(e.op_parallelism(1), 2);
  EXPECT_EQ(par->back(), 2.0);
  EXPECT_NE(m.series("elastic.op1.backlog_ewma"), nullptr);
  EXPECT_EQ(m.series("elastic.op2.parallelism"), nullptr);  // the sink
  ASSERT_EQ(e.num_tasks(), 6u);
  EXPECT_NE(m.series("task4.in_queue"), nullptr);
  EXPECT_NE(m.series("task5.in_queue"), nullptr);
}

// Emits every tuple on both of its out streams.
class DupBolt : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override {
    out.emit(t, 0);
    out.emit(t, 1);
    return us(2);
  }
};

TEST(ElasticRescale, PlansSerializeAcrossOperators) {
  // s -> dup(1) -fields-> a(2), b(2) -> sink. a and b see the same keys
  // at the same cost, so their controllers plan at the same polls. One
  // plan is in flight engine-wide: a (op 2, polled first) wins every
  // collision and b (op 3) backs off into its cooldown, at 190, 250 and
  // 310 ms. Each adopted plan leaves one rescale.plan instant and
  // executes as one episode; episodes never overlap.
  auto rate = dsps::RateProfile::constant(300.0);
  rate.then_at(ms(150), 8000.0).then_at(ms(300), 300.0).then_at(ms(450), 0.0);
  dsps::TopologyBuilder b;
  const int s = b.add_spout(
      "s", [] { return std::make_unique<SeqSpout>(); }, 1, std::move(rate));
  const int dup =
      b.add_bolt("dup", [] { return std::make_unique<DupBolt>(); }, 1);
  const int ta = b.add_bolt(
      "a", [] { return std::make_unique<KeyedTallyBolt>(us(300)); }, 2);
  const int tb = b.add_bolt(
      "b", [] { return std::make_unique<KeyedTallyBolt>(us(300)); }, 2);
  const int k =
      b.add_bolt("sink", [] { return std::make_unique<CountingSink>(); }, 1);
  b.connect(s, dup, dsps::Grouping::kShuffle);
  b.connect(dup, ta, dsps::Grouping::kFields, 0);
  b.connect(dup, tb, dsps::Grouping::kFields, 0);
  b.connect(ta, k, dsps::Grouping::kShuffle);
  b.connect(tb, k, dsps::Grouping::kShuffle);

  EngineConfig c = elastic_cfg(4);
  c.obs.tracing_enabled = true;
  Engine e(c, b.build());
  const RunReport& r = e.run(ms(50), ms(600));

  struct Step {
    int op, from, to;
  };
  const std::vector<Step> want = {
      {ta, 2, 3}, {dup, 1, 2}, {ta, 3, 4}, {ta, 4, 3}, {ta, 3, 2}};
  ASSERT_EQ(e.tracer().dropped(), 0u);
  std::vector<Step> plans;
  for (const auto& ev : e.tracer().events()) {
    if (std::string(ev.name) == "rescale.plan") {
      plans.push_back({static_cast<int>(ev.id), 0,
                       static_cast<int>(ev.arg_value)});
    }
  }
  const auto& eps = r.elastic.episodes;
  ASSERT_EQ(plans.size(), want.size());
  ASSERT_EQ(eps.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(plans[i].op, want[i].op);
    EXPECT_EQ(plans[i].to, want[i].to);
    EXPECT_EQ(eps[i].op, want[i].op);
    EXPECT_EQ(eps[i].from, want[i].from);
    EXPECT_EQ(eps[i].to, want[i].to);
    if (i > 0) {
      EXPECT_LT(eps[i - 1].at, eps[i].at - eps[i].stall);
    }
  }
  EXPECT_EQ(r.elastic.rescales_canceled, 0u);
  EXPECT_EQ(r.tuples_lost, 0u);
  EXPECT_EQ(e.op_parallelism(tb), 2);
}

// --- (g) zero-overhead contract --------------------------------------------

TEST(ElasticInertness, DisabledRunMatchesUnconfiguredRun) {
  auto fingerprint = [](bool touch_elastic_cfg) {
    Handles h;
    EngineConfig c;
    c.cluster.num_nodes = 4;
    c.variant = SystemVariant::Whale();
    c.seed = 7;
    c.state.enabled = true;
    c.state.checkpoint_interval = ms(25);
    if (touch_elastic_cfg) {
      c.elastic.enabled = false;  // compiled in, explicitly off
      c.elastic.poll_interval = ms(1);
      c.elastic.up_backlog = 0.0001;  // would fire instantly if live
    }
    Engine e(c, elastic_topo(dsps::RateProfile::constant(800.0), 2, us(100),
                             &h));
    return e.run(ms(50), ms(300)).fingerprint();
  };
  const std::string off = fingerprint(true);
  const std::string never = fingerprint(false);
  EXPECT_EQ(off, never);
}

}  // namespace
}  // namespace whale::core

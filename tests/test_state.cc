// Checkpointing & state management acceptance tests (DESIGN.md §10):
//  (a) StateStore serde round-trips and tolerates layout drift;
//  (b) barrier sentinels are recognized and carry {epoch, src_task};
//  (c) healthy runs commit epochs on schedule, deterministically;
//  (d) with the layer compiled in but disabled, reports are bit-identical
//      to a never-configured run (zero-overhead contract);
//  (e) a seeded crash + restore run is exactly-once at the sink: every
//      emitted sequence number is counted exactly once after the spout
//      log replays the uncommitted gap onto the restored snapshot;
//  (f) epochs coexist with tree switches/repairs without deadlock (the
//      barrier fence defers topology changes rather than splitting an
//      epoch across them).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "elastic/keyed.h"
#include "faults/plan.h"
#include "net/fabric.h"
#include "sim/cpu.h"
#include "sim/simulation.h"
#include "state/checkpoint.h"
#include "state/checkpoint_store.h"
#include "state/state_store.h"

namespace whale::core {
namespace {

// --- (a) StateStore serde -------------------------------------------------

TEST(StateStore, SnapshotRestoreRoundTrip) {
  int64_t counter = 7;
  std::map<int64_t, double> table{{1, 0.5}, {2, 1.5}};
  state::StateStore store;
  store.register_cell(
      "counter", [&](ByteWriter& w) { w.put_i64(counter); },
      [&](ByteReader& r) { counter = r.get_i64(); });
  store.register_cell(
      "table",
      [&](ByteWriter& w) {
        w.put_varint(table.size());
        for (const auto& [k, v] : table) {
          w.put_i64(k);
          w.put_f64(v);
        }
      },
      [&](ByteReader& r) {
        table.clear();
        const uint64_t n = r.get_varint();
        for (uint64_t i = 0; i < n; ++i) {
          const int64_t k = r.get_i64();
          table[k] = r.get_f64();
        }
      });
  ASSERT_EQ(store.cell_count(), 2u);

  const auto blob = store.snapshot();
  EXPECT_FALSE(blob.empty());
  counter = -1;
  table.clear();
  table[99] = 9.9;
  store.restore(blob);
  EXPECT_EQ(counter, 7);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_DOUBLE_EQ(table.at(1), 0.5);
  EXPECT_DOUBLE_EQ(table.at(2), 1.5);
}

TEST(StateStore, RestoreSkipsUnknownAndKeepsMissingCells) {
  // Writer store has cells {a, b}; reader store has {b, c}. Restoring the
  // writer's blob into the reader must fill b, skip a, and leave c alone.
  int64_t a = 1, b = 2;
  state::StateStore writer;
  writer.register_cell(
      "a", [&](ByteWriter& w) { w.put_i64(a); },
      [&](ByteReader& r) { a = r.get_i64(); });
  writer.register_cell(
      "b", [&](ByteWriter& w) { w.put_i64(b); },
      [&](ByteReader& r) { b = r.get_i64(); });
  const auto blob = writer.snapshot();

  int64_t rb = 0, rc = 42;
  state::StateStore reader;
  reader.register_cell(
      "b", [&](ByteWriter& w) { w.put_i64(rb); },
      [&](ByteReader& r) { rb = r.get_i64(); });
  reader.register_cell(
      "c", [&](ByteWriter& w) { w.put_i64(rc); },
      [&](ByteReader& r) { rc = r.get_i64(); });
  reader.restore(blob);
  EXPECT_EQ(rb, 2);
  EXPECT_EQ(rc, 42);
}

// --- restore_if / has_cell_matching edge cases ----------------------------

// Builds a store over three int cells ("route.a", "route.ab", "data.x")
// whose live values the test mutates between snapshot and restore.
struct FilterFixture {
  int64_t route_a = 1, route_ab = 2, data_x = 3;
  state::StateStore store;
  FilterFixture() {
    auto cell = [this](const char* name, int64_t* v) {
      store.register_cell(
          name, [v](ByteWriter& w) { w.put_i64(*v); },
          [v](ByteReader& r) { *v = r.get_i64(); });
    };
    cell("route.a", &route_a);
    cell("route.ab", &route_ab);
    cell("data.x", &data_x);
  }
};

TEST(StateStore, RestoreIfEmptyPrefixMatchesEverything) {
  FilterFixture f;
  const auto blob = f.store.snapshot();
  f.route_a = -1;
  f.route_ab = -2;
  f.data_x = -3;
  // An empty-prefix filter passes every name: full restore semantics.
  f.store.restore_if(blob, [](const std::string& n) {
    return n.rfind("", 0) == 0;
  });
  EXPECT_EQ(f.route_a, 1);
  EXPECT_EQ(f.route_ab, 2);
  EXPECT_EQ(f.data_x, 3);
}

TEST(StateStore, RestoreIfOverlappingPrefixes) {
  FilterFixture f;
  const auto blob = f.store.snapshot();
  f.route_a = -1;
  f.route_ab = -2;
  f.data_x = -3;
  // "route.a" is itself a prefix of "route.ab": both must roll back, the
  // data cell must stay live.
  f.store.restore_if(blob, [](const std::string& n) {
    return n.rfind("route.a", 0) == 0;
  });
  EXPECT_EQ(f.route_a, 1);
  EXPECT_EQ(f.route_ab, 2);
  EXPECT_EQ(f.data_x, -3);
}

TEST(StateStore, RestoreIfOntoMissingCellIsANoOp) {
  FilterFixture f;
  const auto blob = f.store.snapshot();
  // A reader registering none of the blob's matched cells: nothing to
  // apply, nothing corrupted, live cells untouched.
  int64_t other = 99;
  state::StateStore reader;
  reader.register_cell(
      "other", [&](ByteWriter& w) { w.put_i64(other); },
      [&](ByteReader& r) { other = r.get_i64(); });
  reader.restore_if(blob, [](const std::string& n) {
    return n.rfind("route.", 0) == 0;
  });
  EXPECT_EQ(other, 99);
}

TEST(StateStore, RestoreIfLeavesUnmatchedCellsLive) {
  FilterFixture f;
  const auto blob = f.store.snapshot();
  // Only data.* rolls back; the route cells keep their post-snapshot
  // values even though the blob carries their old ones.
  f.route_a = 10;
  f.route_ab = 20;
  f.data_x = 30;
  f.store.restore_if(blob, [](const std::string& n) {
    return n.rfind("data.", 0) == 0;
  });
  EXPECT_EQ(f.route_a, 10);
  EXPECT_EQ(f.route_ab, 20);
  EXPECT_EQ(f.data_x, 3);
}

TEST(StateStore, HasCellMatchingEdgeCases) {
  state::StateStore empty;
  EXPECT_FALSE(empty.has_cell_matching([](const std::string&) {
    return true;
  }));
  FilterFixture f;
  EXPECT_TRUE(f.store.has_cell_matching([](const std::string& n) {
    return n.rfind("route.ab", 0) == 0;  // exact full-name prefix
  }));
  EXPECT_TRUE(f.store.has_cell_matching([](const std::string& n) {
    return n.rfind("", 0) == 0;  // empty prefix: any cell
  }));
  EXPECT_FALSE(f.store.has_cell_matching([](const std::string& n) {
    return n.rfind("route.abc", 0) == 0;  // longer than any name
  }));
}

// --- incremental deltas (dirty tracking) ----------------------------------

TEST(StateStore, SnapshotDeltaSkipsCleanCells) {
  FilterFixture f;
  const auto full = f.store.snapshot();
  f.store.rebase(full);  // baselines = current content
  state::StateStore::DeltaStats ds;
  const auto none = f.store.snapshot_delta(/*page_bytes=*/64,
                                           /*force_full=*/false, &ds);
  EXPECT_EQ(ds.dirty_cells, 0u);
  EXPECT_EQ(ds.clean_cells, 3u);
  EXPECT_LT(ds.shipped_bytes, ds.full_bytes);
  f.store.commit_baseline();

  f.route_a = 42;
  const auto one = f.store.snapshot_delta(64, false, &ds);
  EXPECT_EQ(ds.dirty_cells, 1u);
  EXPECT_EQ(ds.clean_cells, 2u);
  EXPECT_GT(one.size(), none.size());
}

TEST(StateStore, SnapshotDeltaIsPageGranular) {
  std::vector<uint8_t> big(1024, 7);
  state::StateStore store;
  store.register_cell(
      "big",
      [&](ByteWriter& w) {
        w.put_bytes(std::span<const uint8_t>(big.data(), big.size()));
      },
      [&](ByteReader& r) { big = r.get_bytes(); });
  store.rebase(store.snapshot());
  big[600] = 8;  // one byte -> one dirty page
  state::StateStore::DeltaStats ds;
  const auto delta = store.snapshot_delta(/*page_bytes=*/64, false, &ds);
  EXPECT_EQ(ds.dirty_cells, 1u);
  EXPECT_LT(ds.shipped_bytes, ds.full_bytes / 4);  // one page of sixteen
  // force_full ships every page regardless of the baselines.
  store.drop_pending_baseline();
  const auto full = store.snapshot_delta(64, /*force_full=*/true, &ds);
  EXPECT_GT(full.size(), delta.size());
  EXPECT_GE(ds.shipped_bytes, 1024u);
}

TEST(StateStore, DeltaBaselineLifecycle) {
  int64_t v = 1;
  state::StateStore store;
  store.register_cell(
      "v", [&](ByteWriter& w) { w.put_i64(v); },
      [&](ByteReader& r) { v = r.get_i64(); });
  store.rebase(store.snapshot());
  v = 5;
  state::StateStore::DeltaStats ds;
  store.snapshot_delta(64, false, &ds);
  EXPECT_EQ(ds.dirty_cells, 1u);
  // Dropped (epoch aborted): the next delta diffs against the OLD
  // baseline and ships the cell again.
  store.drop_pending_baseline();
  store.snapshot_delta(64, false, &ds);
  EXPECT_EQ(ds.dirty_cells, 1u);
  // Committed: the baseline advances and the cell reads clean.
  store.commit_baseline();
  store.snapshot_delta(64, false, &ds);
  EXPECT_EQ(ds.dirty_cells, 0u);
  EXPECT_EQ(ds.clean_cells, 1u);
}

// --- (b) barrier sentinels ------------------------------------------------

TEST(Barriers, SentinelRoundTrip) {
  const dsps::Tuple bar = state::make_barrier(/*epoch=*/12, /*src_task=*/3);
  EXPECT_TRUE(state::is_barrier(bar));
  EXPECT_EQ(state::barrier_epoch(bar), 12u);
  EXPECT_EQ(state::barrier_src_task(bar), 3);
  EXPECT_EQ(bar.root_id, 0u);

  dsps::Tuple data;
  data.values.emplace_back(int64_t{5});
  data.root_id = 17;
  EXPECT_FALSE(state::is_barrier(data));
}

// --- shared fixtures ------------------------------------------------------

class SmallSpout : public dsps::Spout {
 public:
  dsps::Tuple next(Rng&) override {
    dsps::Tuple t;
    t.values.emplace_back(std::string(100, 'x'));
    return t;
  }
};

// Emits sequential ids and checkpoints the cursor (source-offset state).
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

class ForwardBolt : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override {
    out.emit(t);
    return us(5);
  }
};

// Sink counting how often each sequence number was applied to its state.
// The count map is registered state, so a recovery rolls it back to the
// committed snapshot before the replay re-applies the uncommitted gap —
// exactly the accounting an exactly-once sink must survive.
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

dsps::Topology broadcast_topo(double rate, int parallelism) {
  dsps::TopologyBuilder b;
  const int s = b.add_spout(
      "s", [] { return std::make_unique<SmallSpout>(); }, 1,
      dsps::RateProfile::constant(rate));
  const int m = b.add_bolt(
      "m", [] { return std::make_unique<NopBolt>(); }, parallelism);
  b.connect(s, m, dsps::Grouping::kAll);
  return b.build();
}

EngineConfig base_cfg(int nodes) {
  EngineConfig c;
  c.cluster.num_nodes = nodes;
  c.variant = SystemVariant::Whale();
  c.seed = 11;
  return c;
}

// --- (c) healthy epochs commit deterministically --------------------------

TEST(Checkpoints, HealthyRunCommitsEpochs) {
  auto run_once = [](std::string* fp) {
    EngineConfig c = base_cfg(4);
    c.state.enabled = true;
    c.state.checkpoint_interval = ms(50);
    Engine e(c, broadcast_topo(400.0, 8));
    const auto& r = e.run(ms(100), ms(400));
    if (fp) *fp = r.fingerprint();
    return r;
  };
  std::string fp_a;
  const RunReport r = run_once(&fp_a);
  // ~8 ticks in the 400 ms window (plus warmup ones); most must commit.
  EXPECT_GE(r.epochs_completed, 4u);
  EXPECT_EQ(r.checkpoint_recoveries, 0u);
  EXPECT_GT(r.barriers_injected, 0u);
  EXPECT_GT(r.checkpoint_bytes, 0u);       // empty cells still frame bytes
  EXPECT_GT(r.committed_completions, 0u);  // sink roots entered the set
  EXPECT_GT(r.epoch_duration_avg, 0);
  EXPECT_NE(fp_a.find("epochs="), std::string::npos);

  std::string fp_b;
  run_once(&fp_b);
  EXPECT_EQ(fp_a, fp_b);  // checkpointing preserves determinism
}

// --- (d) zero-overhead when disabled --------------------------------------

TEST(Checkpoints, DisabledRunMatchesUnconfiguredRun) {
  auto fingerprint = [](bool touch_state_cfg) {
    EngineConfig c = base_cfg(4);
    if (touch_state_cfg) {
      c.state.enabled = false;  // compiled in, explicitly off
      c.state.checkpoint_interval = ms(10);
    }
    Engine e(c, broadcast_topo(400.0, 8));
    return e.run(ms(100), ms(300)).fingerprint();
  };
  const std::string off = fingerprint(true);
  const std::string never = fingerprint(false);
  EXPECT_EQ(off, never);
  // No checkpoint fields may leak into the disabled fingerprint.
  EXPECT_EQ(off.find("epochs="), std::string::npos);
}

// --- (e) exactly-once across crash + restore ------------------------------

// When node 1 dies and for how long.
struct Crash {
  Time at;
  Duration down;
};
// Just after the 300 ms barrier injection — mid-epoch, with epochs
// committed before it.
constexpr Crash kMidEpochCrash{ms(302), ms(150)};
// Down and back before the first tick at 100 ms: recovery finds no
// committed epoch, so every task rolls back to its epoch-0 image.
constexpr Crash kCrashBeforeFirstTick{ms(50), ms(30)};

// Shared crash/restore scenario, run under a caller-tweaked StateConfig
// (local store, remote backend, incremental deltas, unaligned barriers):
// every sequence number the spout generated must land in the sink's state
// exactly once. `inspect` sees the engine after the run. Returns a copy of
// the report for backend-specific checks.
RunReport run_exactly_once_scenario(
    const std::function<void(EngineConfig&)>& tweak,
    Crash crash = kMidEpochCrash,
    const std::function<void(Engine&, const RunReport&)>& inspect = {}) {
  EngineConfig c = base_cfg(4);
  c.seed = 23;
  c.state.enabled = true;
  c.state.checkpoint_interval = ms(100);
  // Slow persistent-store writes hold each epoch in flight for >= 5 ms, so
  // the crash below lands mid-epoch deterministically.
  c.state.store_write_latency = ms(5);
  // Exactly-once accounting needs lossless queues: any reject would lose a
  // committed-epoch tuple the log no longer covers.
  c.executor_queue_capacity = 65536;
  c.transfer_queue_capacity = 65536;

  dsps::TopologyBuilder b;
  SeqSpout* spout = nullptr;
  CountingSink* sink = nullptr;
  // Emission stops at 290 ms so in-flight data drains before the crash at
  // 302 ms and nothing regenerates during the outage.
  const int s = b.add_spout(
      "s",
      [&spout] {
        auto sp = std::make_unique<SeqSpout>();
        spout = sp.get();
        return sp;
      },
      1, dsps::RateProfile::constant(400.0).then_at(ms(290), 0.0));
  const int f = b.add_bolt(
      "f", [] { return std::make_unique<ForwardBolt>(); }, 2);
  const int k = b.add_bolt(
      "c",
      [&sink] {
        auto sk = std::make_unique<CountingSink>();
        sink = sk.get();
        return sk;
      },
      1);
  b.connect(s, f, dsps::Grouping::kShuffle);
  b.connect(f, k, dsps::Grouping::kShuffle);

  // By default node 1 dies mid-epoch and returns at 452 ms; recovery
  // restores the last committed snapshot and replays the uncommitted spout
  // log.
  c.faults.crash(/*node=*/1, crash.at, /*restart_after=*/crash.down);
  tweak(c);

  Engine e(c, b.build());
  const auto& r = e.run(ms(100), ms(700));
  EXPECT_NE(spout, nullptr);
  EXPECT_NE(sink, nullptr);

  EXPECT_EQ(r.node_crashes, 1u);
  EXPECT_EQ(r.node_restarts, 1u);
  EXPECT_EQ(r.checkpoint_recoveries, 1u);
  EXPECT_GE(r.epochs_completed, 2u);   // commits before and after the crash
  if (crash.at > c.state.checkpoint_interval) {
    EXPECT_GE(r.epochs_aborted, 1u);   // the one the crash interrupted
  }
  EXPECT_GT(r.checkpoint_replays, 0u);
  // The accounting below is only exact if nothing was dropped at a queue.
  EXPECT_EQ(r.input_drops, 0u);
  EXPECT_EQ(r.queue_rejects, 0u);

  // Exactly-once: every sequence number the spout generated is in the sink
  // state exactly once — committed tuples via the restored snapshot,
  // uncommitted ones via the log replay, none twice.
  const auto& counts = sink->counts();
  EXPECT_EQ(counts.size(), static_cast<size_t>(spout->emitted()));
  for (const auto& [seq, n] : counts) {
    EXPECT_EQ(n, 1u) << "sequence " << seq << " applied " << n << " times";
  }
  // The committed set never exceeds what the sink actually processed.
  EXPECT_LE(r.committed_completions, counts.size());
  if (inspect) inspect(e, r);
  return r;
}

// The media and barrier modes the exactly-once scenario runs under.
struct StateMode {
  const char* name;
  bool remote, unaligned;
};
constexpr StateMode kStateModes[] = {{"local-aligned", false, false},
                                     {"local-unaligned", false, true},
                                     {"remote-aligned", true, false},
                                     {"remote-unaligned", true, true}};

void apply(const StateMode& m, EngineConfig& c) {
  c.state.remote = m.remote;
  c.state.incremental = m.remote;
  c.state.unaligned = m.unaligned;
}

TEST(Checkpoints, ExactlyOnceAcrossCrashAndRestore) {
  run_exactly_once_scenario([](EngineConfig&) {});
}

TEST(Checkpoints, ExactlyOnceWithRemoteBackend) {
  const RunReport r = run_exactly_once_scenario(
      [](EngineConfig& c) { c.state.remote = true; });
  EXPECT_GT(r.remote_writes, 0u);
  EXPECT_GT(r.remote_write_bytes, 0u);
  EXPECT_GE(r.remote_reads, 1u);  // recovery READ the committed images
  EXPECT_GT(r.remote_read_bytes, 0u);
  EXPECT_EQ(r.mr_regions, 4u);    // one region per task (1 + 2 + 1)
}

TEST(Checkpoints, ExactlyOnceWithIncrementalSnapshots) {
  const RunReport r = run_exactly_once_scenario([](EngineConfig& c) {
    c.state.remote = true;
    c.state.incremental = true;
  });
  // The delta census actually ran: cells were diffed, some skipped clean.
  EXPECT_GT(r.state_dirty_cells, 0u);
  EXPECT_GT(r.snapshot_full_bytes, r.checkpoint_bytes);
}

TEST(Checkpoints, ExactlyOnceWithUnalignedBarriers) {
  const RunReport r = run_exactly_once_scenario(
      [](EngineConfig& c) { c.state.unaligned = true; });
  // Unaligned mode never stalls an executor waiting for barriers.
  EXPECT_EQ(r.align_stall_total, 0);
}

TEST(Checkpoints, ExactlyOnceWithEverythingOn) {
  const RunReport r = run_exactly_once_scenario([](EngineConfig& c) {
    c.state.remote = true;
    c.state.incremental = true;
    c.state.unaligned = true;
  });
  EXPECT_GT(r.remote_writes, 0u);
  EXPECT_EQ(r.align_stall_total, 0);
}

TEST(Checkpoints, CrashBeforeFirstCommitIsExactlyOnce) {
  // The restore finds no committed epoch: every task rolls back to the
  // image it started from, and the spout log replays from the first
  // emission. 400 t/s until 290 ms makes 109 sequence values; the 31
  // logged before recovery are replayed, and all seven ticks commit.
  for (const StateMode& m : kStateModes) {
    SCOPED_TRACE(m.name);
    const RunReport r = run_exactly_once_scenario(
        [&m](EngineConfig& c) { apply(m, c); }, kCrashBeforeFirstTick);
    EXPECT_EQ(r.checkpoint_replays, 31u);
    EXPECT_EQ(r.epochs_completed, 7u);
    EXPECT_EQ(r.epochs_aborted, 0u);
  }
}

TEST(Checkpoints, TraceEventsMatchTheReport) {
  // Every protocol event the report counts leaves one trace event, with
  // the trace unsampled for control events: one barrier.inject instant
  // per injection, one checkpoint span per commit, one
  // epoch.abort instant per abort, one state.restore span per restart and
  // one state.recovered instant per recovery.
  for (const StateMode& m : kStateModes) {
    for (const Crash crash : {kCrashBeforeFirstTick, kMidEpochCrash}) {
      SCOPED_TRACE(std::string(m.name) + " crash at " +
                   std::to_string(crash.at / ms(1)) + " ms");
      run_exactly_once_scenario(
          [&m](EngineConfig& c) {
            apply(m, c);
            c.obs.tracing_enabled = true;
          },
          crash, [](Engine& e, const RunReport& r) {
            ASSERT_EQ(e.tracer().dropped(), 0u);
            std::map<std::string, uint64_t> n;
            for (const auto& ev : e.tracer().events()) {
              ++n[std::string(ev.name) + ev.ph];
            }
            EXPECT_EQ(n["barrier.injecti"], r.barriers_injected);
            EXPECT_EQ(n["checkpointX"], r.epochs_completed);
            EXPECT_EQ(n["epoch.aborti"], r.epochs_aborted);
            EXPECT_EQ(n["state.restoreX"], r.node_restarts);
            EXPECT_EQ(n["state.recoveredi"], r.checkpoint_recoveries);
          });
    }
  }
}

TEST(Checkpoints, FullSpoutQueueAbortsEpoch) {
  // A spout queue so full that even the barrier bounces: each injection
  // aborts its epoch on the spot, and nothing ever commits. A bounced
  // barrier still leaves its barrier.inject instant.
  EngineConfig c = base_cfg(4);
  c.executor_queue_capacity = 4;
  c.state.enabled = true;
  c.state.checkpoint_interval = ms(20);
  c.obs.tracing_enabled = true;
  Engine e(c, broadcast_topo(2'000'000.0, 8));
  const auto& r = e.run(ms(100), ms(150));
  EXPECT_EQ(r.barriers_injected, 12u);
  EXPECT_EQ(r.epochs_aborted, r.barriers_injected);
  EXPECT_EQ(r.epochs_completed, 0u);
  ASSERT_EQ(e.tracer().dropped(), 0u);
  uint64_t injects = 0;
  for (const auto& ev : e.tracer().events()) {
    injects += std::string(ev.name) == "barrier.inject";
  }
  EXPECT_EQ(injects, r.barriers_injected);
}

// Forwards every tuple; instance 1 serves 125 t/s, so under 200 t/s its
// backlog grows all run and its barriers trail instance 0's.
class SkewedForwardBolt : public dsps::Bolt {
 public:
  void prepare(const dsps::TaskContext& ctx) override {
    slow_ = ctx.instance_index == 1;
  }
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override {
    out.emit(t);
    return slow_ ? ms(8) : us(5);
  }

 private:
  bool slow_ = false;
};

TEST(Checkpoints, CrashDropsStashedTuplesAsLost) {
  // s -> f(2) -> sink with aligned barriers; node 0 hosts s, f[0] and the
  // sink, node 1 hosts f[1]. From the 100 ms tick on, the sink has f[0]'s
  // barrier and stashes everything f[0] sends while f[1]'s barrier waits
  // behind its backlog; no epoch ever commits. Node 0 dies at 150 ms with
  // ~10 tuples stashed. Storm's TCP transport keeps every loss in the
  // engine's ledger, which must balance after the drain: the stashed
  // tuples count as lost.
  EngineConfig c = base_cfg(2);
  c.variant = SystemVariant::Storm();
  c.state.enabled = true;
  c.obs.metrics_enabled = true;
  c.faults.crash(/*node=*/0, /*at=*/ms(150), /*restart_after=*/ms(50));
  dsps::TopologyBuilder b;
  const int s = b.add_spout(
      "s", [] { return std::make_unique<SeqSpout>(); }, 1,
      dsps::RateProfile::constant(400.0));
  const int f = b.add_bolt(
      "f", [] { return std::make_unique<SkewedForwardBolt>(); }, 2);
  const int k = b.add_bolt(
      "sink", [] { return std::make_unique<NopBolt>(); }, 1);
  b.connect(s, f, dsps::Grouping::kShuffle);
  b.connect(f, k, dsps::Grouping::kShuffle);
  Engine e(c, b.build());
  const auto& r = e.run(ms(50), ms(250));
  EXPECT_EQ(r.node_crashes, 1u);
  EXPECT_EQ(r.checkpoint_recoveries, 1u);
  EXPECT_EQ(r.epochs_completed, 0u);

  e.simulation().run(/*max_events=*/50'000'000);
  ASSERT_TRUE(e.simulation().empty());
  e.obs_finalize();
  auto count = [&e](const char* name) {
    return e.metrics().find_counter(name)->value();
  };
  const uint64_t roots = count("obs.roots_emitted");
  const uint64_t lost = count("obs.tuples_lost_engine");
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(roots, count("obs.sink_completions") + count("obs.input_drops") +
                       count("obs.queue_rejects") + lost +
                       count("obs.tuples_lost_qp") +
                       count("obs.qp_fabric_drops") +
                       count("obs.inflight_end"));
}

// --- (f) epochs are fenced across switches and repairs --------------------

TEST(Checkpoints, EpochsSurviveTreeSwitches) {
  // Quiet-stream scale-up config (cf. test_switching): d* starts at 1 and
  // the empty-queue rule raises it, so switches are guaranteed mid-run.
  EngineConfig c = base_cfg(10);
  c.seed = 3;
  c.initial_dstar = 1;
  c.controller.sample_interval = ms(10);
  c.switch_connection_setup = ms(20);
  c.state.enabled = true;
  c.state.checkpoint_interval = ms(50);
  Engine e(c, broadcast_topo(500.0, 12));
  const auto& r = e.run(ms(100), ms(900));
  // Both mechanisms ran in the same window, and neither wedged the other:
  // the fence defers switches while barriers are in the tree, and a switch
  // in progress aborts (not splits) the colliding epoch.
  EXPECT_GE(r.scale_ups, 1u);
  EXPECT_GE(r.epochs_completed, 4u);
  EXPECT_EQ(e.group_tree(0).validate(), "");
}

TEST(Checkpoints, EpochsSurviveRelayCrashAndRepair) {
  EngineConfig c = base_cfg(6);
  c.state.enabled = true;
  c.state.checkpoint_interval = ms(50);
  c.initial_dstar = 1;  // chain tree: every interior endpoint relays
  c.self_adjust = false;
  c.faults.crash(/*node=*/2, /*at=*/ms(300), /*restart_after=*/ms(200));
  Engine e(c, broadcast_topo(500.0, 12));
  const auto& r = e.run(ms(100), ms(900));
  EXPECT_EQ(r.node_crashes, 1u);
  EXPECT_GE(r.tree_repairs, 1u);
  EXPECT_EQ(r.checkpoint_recoveries, 1u);
  // Epochs committed both before the crash and after the repair.
  EXPECT_GE(r.epochs_completed, 2u);
  const auto& tree = e.group_tree(0);
  EXPECT_EQ(tree.num_removed(), 0);
  EXPECT_EQ(tree.validate(), "");
}

// --- checkpoint store, both media (DESIGN.md §10, §12) --------------------

enum class Medium { kLocal, kRemote };  // the remote one runs incrementally

void PrintTo(Medium m, std::ostream* os) {
  *os << (m == Medium::kRemote ? "remote" : "local");
}

class CheckpointStoreMedia : public ::testing::TestWithParam<Medium> {
 protected:
  CheckpointStoreMedia() : fabric_(sim_, two_nodes()) {
    cfg_.remote = remote();
    cfg_.incremental = remote();
    store_.register_cell(
        "v", [this](ByteWriter& w) { w.put_i64(v_); },
        [this](ByteReader& r) { v_ = r.get_i64(); });
    epoch0_ = store_.snapshot();
    ckpt_.bind_task(0, /*node=*/0, epoch0_);
    store_.rebase(epoch0_);
  }

  static net::ClusterSpec two_nodes() {
    net::ClusterSpec cluster;
    cluster.num_nodes = 2;  // node 0 = worker, node 1 = state host
    return cluster;
  }

  bool remote() const { return GetParam() == Medium::kRemote; }
  // What a restore reads before any commit: the seeded epoch-0 image on
  // the remote medium, nothing on the local one.
  uint64_t uncommitted_bytes() const { return remote() ? epoch0_.size() : 0; }

  sim::Simulation sim_;
  net::Fabric fabric_;
  net::CostModel cost_;
  state::StateConfig cfg_;
  state::CheckpointStore ckpt_{fabric_, cost_, cfg_, /*host_node=*/1};
  sim::CpuServer cpu_{sim_, "t0", nullptr};
  int64_t v_ = 7;
  state::StateStore store_;
  std::vector<uint8_t> epoch0_;
};

TEST_P(CheckpointStoreMedia, StagedDeltaCommitsIntoImage) {
  EXPECT_EQ(ckpt_.committed_bytes_total(), uncommitted_bytes());
  EXPECT_EQ(ckpt_.recovery_image(0), epoch0_);  // on both media
  EXPECT_EQ(ckpt_.stats().regions, remote() ? 1u : 0u);

  v_ = 8;
  auto snap = ckpt_.take(store_);
  const uint64_t shipped = snap.stats.shipped_bytes;
  Time landed = -1;
  ckpt_.write(0, /*epoch=*/1, &cpu_, std::move(snap), /*extra_bytes=*/0,
              [&] { landed = sim_.now(); });
  sim_.run_until(ms(10));
  ASSERT_GE(landed, 0);
  if (remote()) {
    EXPECT_GT(ckpt_.stats().write_bytes, 0u);
  } else {
    EXPECT_EQ(landed, state::store_transfer_time(
                          shipped, state::CheckpointStore::kLocalWriteGbps,
                          cfg_.store_write_latency));
    EXPECT_EQ(ckpt_.stats().write_bytes, 0u);
  }
  // Staged, not yet committed: a racing recovery still reads epoch 0.
  EXPECT_EQ(ckpt_.committed_bytes_total(), uncommitted_bytes());
  EXPECT_EQ(ckpt_.recovery_image(0), epoch0_);

  ckpt_.commit(1);
  store_.commit_baseline();
  EXPECT_EQ(ckpt_.recovery_image(0), store_.snapshot());
  EXPECT_EQ(ckpt_.committed_bytes_total(), store_.snapshot().size());
}

TEST_P(CheckpointStoreMedia, AbortDropsStagedDelta) {
  v_ = 9;
  ckpt_.write(0, 1, &cpu_, ckpt_.take(store_), 0, [] {});
  sim_.run_until(ms(10));
  ckpt_.abort(1);
  store_.drop_pending_baseline();
  ckpt_.commit(1);  // nothing staged anymore: must be a no-op
  EXPECT_EQ(ckpt_.committed_bytes_total(), uncommitted_bytes());
  EXPECT_EQ(ckpt_.recovery_image(0), epoch0_);
}

INSTANTIATE_TEST_SUITE_P(Media, CheckpointStoreMedia,
                         ::testing::Values(Medium::kLocal, Medium::kRemote));

// Stateful shuffle pipeline (spout cursor + counting sink) whose sink
// state grows every epoch — the workload the incremental-delta and
// unaligned-barrier comparisons run on.
RunReport run_stateful_pipeline(const std::function<void(EngineConfig&)>& tweak) {
  EngineConfig c = base_cfg(4);
  c.seed = 31;
  c.state.enabled = true;
  c.state.checkpoint_interval = ms(25);
  c.executor_queue_capacity = 65536;
  c.transfer_queue_capacity = 65536;
  tweak(c);
  dsps::TopologyBuilder b;
  const int s = b.add_spout(
      "s", [] { return std::make_unique<SeqSpout>(); }, 1,
      dsps::RateProfile::constant(2000.0));
  const int f = b.add_bolt(
      "f", [] { return std::make_unique<ForwardBolt>(); }, 2);
  const int k = b.add_bolt(
      "c", [] { return std::make_unique<CountingSink>(); }, 1);
  b.connect(s, f, dsps::Grouping::kShuffle);
  b.connect(f, k, dsps::Grouping::kShuffle);
  Engine e(c, b.build());
  return e.run(ms(100), ms(500));
}

TEST(RemoteState, HealthyRunIsDeterministic) {
  auto fp = [] {
    return run_stateful_pipeline([](EngineConfig& c) {
             c.state.remote = true;
             c.state.incremental = true;
           })
        .fingerprint();
  };
  const std::string a = fp();
  EXPECT_NE(a.find("rwrites="), std::string::npos);
  EXPECT_EQ(a, fp());
}

TEST(RemoteState, BackendKnobsAreInertWhenRemoteOff) {
  // The incremental knob flipped while remote stays off: bit-identical to
  // the stock local-store run (the knob must gate on remote, not leak).
  auto fp = [](bool touch) {
    return run_stateful_pipeline([touch](EngineConfig& c) {
             if (touch) c.state.incremental = true;
           })
        .fingerprint();
  };
  EXPECT_EQ(fp(false), fp(true));
}

TEST(RemoteState, IncrementalDeltasCutSnapshotBytes) {
  const RunReport full = run_stateful_pipeline(
      [](EngineConfig& c) { c.state.remote = true; });
  const RunReport incr = run_stateful_pipeline([](EngineConfig& c) {
    c.state.remote = true;
    c.state.incremental = true;
  });
  ASSERT_GT(full.epochs_completed, 4u);
  ASSERT_GT(incr.epochs_completed, 4u);
  // Same workload, same epochs: deltas ship a fraction of the full images.
  // (Every registered cell here — cursors, counts — mutates every epoch,
  // so the win is page-granular, not cell-skipping; clean-cell skipping is
  // covered by the StateStore unit tests.)
  EXPECT_LT(incr.checkpoint_bytes * 2, full.checkpoint_bytes);
  EXPECT_GT(incr.state_dirty_cells, 0u);
  EXPECT_GT(incr.snapshot_full_bytes, incr.checkpoint_bytes);
  // Regions were registered and grew with the sink's expanding state.
  EXPECT_EQ(incr.mr_regions, 4u);
}

// --- (g) crash mid-migration (elastic rescale epoch) -----------------------

// Rescalable middle operator: per-key application tallies in a keyed cell
// (key = the fields-grouping hash of the id), forwarding every tuple.
class KeyedTallyBolt : public dsps::Bolt {
 public:
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override {
    ++tally_[dsps::value_hash(t.values[0])];
    out.emit(t);
    return us(300);
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

 private:
  std::map<uint64_t, uint64_t> tally_;
};

TEST(Checkpoints, CrashMidMigrationCancelsRescaleExactlyOnce) {
  // A burst forces a grow plan; its rescale epoch is in flight — the
  // operator snapshots are taken, the routing is NOT yet flipped — when a
  // node hosting one of the operator's instances dies. The abort must
  // cancel the rescale (parallelism stays at 2, the snapshots are
  // discarded with the epoch) and recovery must restore the pre-rescale
  // images: every sequence number lands in the sink exactly once, no
  // duplicate applications from the discarded migration snapshots.
  EngineConfig c = base_cfg(4);
  c.seed = 23;
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
  c.elastic.ewma_alpha = 0.5;
  c.elastic.min_parallelism = 2;
  c.elastic.max_parallelism = 4;
  // One shot: after the canceled attempt the cooldown outlasts the run,
  // so the post-recovery topology provably kept the old parallelism.
  c.elastic.cooldown = sec(10);

  SeqSpout* spout = nullptr;
  CountingSink* sink = nullptr;
  dsps::TopologyBuilder b;
  // Burst at 150 ms drives the grow decision (~190 ms); emission stops at
  // 195 ms so nothing regenerates during the outage. The rescale epoch is
  // injected at the 200 ms tick and its migration is still aligning when
  // the crash lands at 205 ms.
  const int s = b.add_spout(
      "s",
      [&spout] {
        auto sp = std::make_unique<SeqSpout>();
        spout = sp.get();
        return sp;
      },
      1,
      dsps::RateProfile::constant(300.0)
          .then_at(ms(150), 8000.0)
          .then_at(ms(195), 0.0));
  const int m = b.add_bolt(
      "tally", [] { return std::make_unique<KeyedTallyBolt>(); }, 2);
  const int k = b.add_bolt(
      "sink",
      [&sink] {
        auto sk = std::make_unique<CountingSink>();
        sink = sk.get();
        return sk;
      },
      1);
  b.connect(s, m, dsps::Grouping::kFields, /*key_field=*/0);
  b.connect(m, k, dsps::Grouping::kShuffle);
  c.faults.crash(/*node=*/1, /*at=*/ms(205), /*restart_after=*/ms(150));

  Engine e(c, b.build());
  const auto& r = e.run(ms(50), ms(650));
  ASSERT_NE(spout, nullptr);
  ASSERT_NE(sink, nullptr);

  // The migration was genuinely interrupted mid-flight, not completed.
  EXPECT_GE(r.elastic.rescales_canceled, 1u);
  EXPECT_EQ(r.elastic.scale_ups, 0u);
  EXPECT_EQ(r.elastic.scale_downs, 0u);
  EXPECT_EQ(r.elastic.instances_spawned, 0u);
  EXPECT_EQ(e.op_parallelism(m), 2);  // routing never flipped
  EXPECT_EQ(e.num_tasks(), 4u);       // no instance was ever added
  EXPECT_EQ(r.node_crashes, 1u);
  EXPECT_EQ(r.checkpoint_recoveries, 1u);
  EXPECT_EQ(r.input_drops, 0u);
  EXPECT_EQ(r.queue_rejects, 0u);

  // Zero duplicate sink applications: the discarded migration snapshots
  // never leaked into the restored images.
  const auto& counts = sink->counts();
  EXPECT_EQ(counts.size(), static_cast<size_t>(spout->emitted()));
  for (const auto& [seq, n] : counts) {
    EXPECT_EQ(n, 1u) << "sequence " << seq << " applied " << n << " times";
  }
}

TEST(RemoteState, UnalignedBarriersRemoveAlignmentStall) {
  const RunReport aligned = run_stateful_pipeline([](EngineConfig&) {});
  const RunReport unaligned = run_stateful_pipeline(
      [](EngineConfig& c) { c.state.unaligned = true; });
  ASSERT_GT(aligned.epochs_completed, 4u);
  ASSERT_GT(unaligned.epochs_completed, 4u);
  // The two-channel sink stalls under alignment; unaligned mode snapshots
  // at the first barrier and never stalls.
  EXPECT_GT(aligned.align_stall_total, 0);
  EXPECT_EQ(unaligned.align_stall_total, 0);
}

}  // namespace
}  // namespace whale::core

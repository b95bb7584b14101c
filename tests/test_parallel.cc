// Parallel conservative DES kernel (src/sim/parallel.h, DESIGN.md §13).
//
// Three layers of coverage:
//
//  1. Kernel merge contract: a randomized seeded workload of event chains
//     that post cross-partition messages proves the windowed rounds +
//     deterministic channel merge replay the exact same (partition, time,
//     tag) execution trace at every thread count — the property the
//     engine-level fingerprint gate rests on.
//
//  2. Window computation: Fabric::min_cross_propagation under degraded
//     links — a latency factor below 1 must SHRINK the lookahead (the
//     conservative bound must track the fastest link), a partitioned link
//     (bandwidth factor 0) must be skipped entirely, and an all-links-
//     partitioned topology must yield kNoCrossLinks (windows extend to
//     the target; no deadlock, because nothing can cross anyway).
//
//  3. Engine fingerprint parity: every probe of the fingerprint suite,
//     run with cfg.sim.threads in {2, 4, hardware_concurrency}, matches
//     the committed serial baseline bit-for-bit. The fingerprint embeds
//     events=, so event-count parity is asserted by the same comparison.
//
//  4. Eligibility matrix: every disqualifying knob, toggled one at a
//     time, must fall back to serial with RunReport.parallel naming that
//     knob in fallback_reason; the all-clear config must engage with one
//     partition per node.
//
//  5. Partition-map properties over randomized topologies: the map covers
//     all nodes, spout-hosting nodes land in distinct partitions (the
//     per-spout split — no more fold into partition 0), partition 0 is
//     anchored, and the cross-partition merge key (time, src_partition,
//     append index) is a total order.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "apps/fingerprint_suite.h"
#include "apps/ride_hailing_app.h"
#include "common/rng.h"
#include "core/engine.h"
#include "net/cluster.h"
#include "net/fabric.h"
#include "sim/parallel.h"
#include "sim/simulation.h"

namespace {

using whale::Duration;
using whale::Time;
using whale::us;

// ---------------------------------------------------------------------------
// 1. Kernel merge contract
// ---------------------------------------------------------------------------

uint64_t splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// One trace entry: which partition ran an event, when, and its identity.
using TraceEntry = std::tuple<int, Time, uint64_t>;

// Runs a seeded workload of self-continuing chains on `parts` partitions
// with `threads` threads. Chains hop across partitions with delays >= the
// lookahead and reschedule locally with small delays; every execution
// appends to its partition's trace (single writer per partition, merged
// after the run). Returns the merged trace.
std::vector<TraceEntry> run_kernel_workload(int parts, int threads,
                                            uint64_t seed) {
  constexpr Duration kLookahead = us(5);
  // node i -> partition i (one node per partition is the adversarial
  // case: every hop crosses).
  std::vector<int> node_part(static_cast<size_t>(parts));
  for (int i = 0; i < parts; ++i) node_part[static_cast<size_t>(i)] = i;

  whale::sim::ParallelSimulation ps(node_part, parts, threads);
  ps.set_lookahead(kLookahead);

  std::vector<std::vector<TraceEntry>> traces(static_cast<size_t>(parts));

  // A chain step: record, then either hop to a pseudo-random partition at
  // a delay >= lookahead or continue locally. Captured state fits the
  // 48-byte InlineFunction buffer.
  struct Step {
    whale::sim::ParallelSimulation* ps;
    std::vector<std::vector<TraceEntry>>* traces;
    uint64_t id;
    int hops_left;

    void operator()() const {
      auto& sim = ps->current();
      const int here = ps->current_partition();
      (*traces)[static_cast<size_t>(here)].emplace_back(here, sim.now(), id);
      if (hops_left == 0) return;
      const uint64_t h = splitmix(id * 1315423911ull +
                                  static_cast<uint64_t>(hops_left));
      Step next{ps, traces, id * 33 + static_cast<uint64_t>(hops_left),
                hops_left - 1};
      if (h & 1) {
        const int dst = static_cast<int>((h >> 8) %
                                         static_cast<uint64_t>(
                                             ps->num_partitions()));
        const Duration d = kLookahead + static_cast<Duration>(h % 4000);
        ps->post_after(dst, d, next);
      } else {
        sim.schedule_after(static_cast<Duration>(1 + (h % 700)), next);
      }
    }
  };

  for (int p = 0; p < parts; ++p) {
    for (int c = 0; c < 8; ++c) {
      const uint64_t id = splitmix(seed ^ (static_cast<uint64_t>(p) << 32 |
                                           static_cast<uint64_t>(c)));
      ps.partition(p).schedule_at(static_cast<Time>(id % 1000),
                                  Step{&ps, &traces, id, 200});
    }
  }
  ps.run_until(whale::ms(40));

  std::vector<TraceEntry> merged;
  for (auto& t : traces) {
    merged.insert(merged.end(), t.begin(), t.end());
  }
  // Canonical order: partition-major (each partition's slice is already
  // in execution order, which is the property under test).
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEntry& a, const TraceEntry& b) {
                     return std::get<0>(a) < std::get<0>(b);
                   });
  return merged;
}

TEST(ParallelKernel, TraceIdenticalAcrossThreadCounts) {
  const int hw = std::max(2u, std::thread::hardware_concurrency());
  std::vector<int> counts = {1, 2, 4, hw};
  for (uint64_t seed : {42ull, 7ull, 999ull}) {
    const auto reference = run_kernel_workload(4, 1, seed);
    ASSERT_FALSE(reference.empty());
    for (int t : counts) {
      const auto got = run_kernel_workload(4, t, seed);
      EXPECT_EQ(reference.size(), got.size())
          << "seed " << seed << " threads " << t;
      EXPECT_TRUE(reference == got)
          << "trace diverged: seed " << seed << " threads " << t;
    }
  }
}

TEST(ParallelKernel, EventsProcessedMatchesAcrossThreadCounts) {
  auto count = [](int threads) {
    std::vector<int> node_part = {0, 1, 2};
    whale::sim::ParallelSimulation ps(node_part, 3, threads);
    ps.set_lookahead(us(2));
    std::vector<std::vector<TraceEntry>> traces(3);
    struct Ping {
      whale::sim::ParallelSimulation* ps;
      int dst;
      int left;
      void operator()() const {
        if (left == 0) return;
        ps->post_after(dst, us(2) + 1, Ping{ps, (dst + 1) % 3, left - 1});
      }
    };
    ps.partition(0).schedule_at(0, Ping{&ps, 1, 500});
    ps.run_until(whale::ms(20));
    return ps.events_processed();
  };
  const uint64_t serial = count(1);
  EXPECT_GT(serial, 400u);
  EXPECT_EQ(serial, count(2));
  EXPECT_EQ(serial, count(4));
}

// Zero-lookahead inputs are rejected in debug builds; kInfiniteLookahead
// (no cross links) must let a partition-local workload run to completion
// in one window — the degenerate "fabric fully partitioned" case.
TEST(ParallelKernel, InfiniteLookaheadRunsToCompletion) {
  std::vector<int> node_part = {0, 1};
  whale::sim::ParallelSimulation ps(node_part, 2, 2);
  ps.set_lookahead(whale::sim::ParallelSimulation::kInfiniteLookahead);
  int fired = 0;
  for (int p = 0; p < 2; ++p) {
    ps.partition(p).schedule_at(us(3), [&fired] { ++fired; });
  }
  ps.run_until(whale::ms(1));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(ps.now(), whale::ms(1));
}

// ---------------------------------------------------------------------------
// 2. Window computation under degraded links
// ---------------------------------------------------------------------------

class LookaheadTest : public ::testing::Test {
 protected:
  whale::sim::Simulation sim_;
  whale::net::ClusterSpec spec_;

  whale::net::Fabric make_fabric() {
    spec_.num_nodes = 4;
    return whale::net::Fabric(sim_, spec_);
  }
};

TEST_F(LookaheadTest, BaselineIsMinCrossPropagation) {
  auto fabric = make_fabric();
  const std::vector<int> part = {0, 0, 1, 1};
  // Single rack: every pair is intra-rack.
  EXPECT_EQ(fabric.min_cross_propagation(whale::net::Transport::kRdma, part),
            spec_.ib_prop_intra_rack);
  EXPECT_EQ(fabric.min_cross_propagation(whale::net::Transport::kTcp, part),
            spec_.eth_prop_intra_rack);
}

TEST_F(LookaheadTest, SamePartitionLinksDoNotBound) {
  auto fabric = make_fabric();
  // All nodes in one partition: no cross links at all.
  const std::vector<int> one = {0, 0, 0, 0};
  EXPECT_EQ(fabric.min_cross_propagation(whale::net::Transport::kRdma, one),
            whale::net::Fabric::kNoCrossLinks);
}

TEST_F(LookaheadTest, FasterDegradedLinkShrinksLookahead) {
  auto fabric = make_fabric();
  const std::vector<int> part = {0, 0, 1, 1};
  // A latency factor BELOW 1 makes one cross link faster than pristine;
  // the conservative bound must shrink with it.
  fabric.degrade_link(0, 2, /*bandwidth_factor=*/1.0, /*latency_factor=*/0.25);
  const Duration expect =
      static_cast<Duration>(static_cast<double>(spec_.ib_prop_intra_rack) *
                            0.25);
  EXPECT_EQ(fabric.min_cross_propagation(whale::net::Transport::kRdma, part),
            expect);
}

TEST_F(LookaheadTest, DegradedFloorNeverReachesZero) {
  auto fabric = make_fabric();
  const std::vector<int> part = {0, 0, 1, 1};
  // An absurdly sped-up link must still leave a strictly positive
  // lookahead: a zero window would stall the round loop forever.
  fabric.degrade_link(0, 2, 1.0, /*latency_factor=*/1e-9);
  EXPECT_EQ(fabric.min_cross_propagation(whale::net::Transport::kRdma, part),
            1);
}

TEST_F(LookaheadTest, PartitionedLinksAreSkipped) {
  auto fabric = make_fabric();
  const std::vector<int> part = {0, 0, 1, 1};
  // Partitioning the fastest links (bandwidth 0 drops everything) removes
  // them from the bound instead of driving it to the floor.
  fabric.degrade_link(0, 2, /*bandwidth_factor=*/0.0, 1.0);
  fabric.degrade_link(0, 3, 0.0, 1.0);
  fabric.degrade_link(1, 2, 0.0, 1.0);
  fabric.degrade_link(1, 3, 0.0, 1.0);
  // Reverse direction still intact: dst-side links bound the lookahead.
  EXPECT_EQ(fabric.min_cross_propagation(whale::net::Transport::kRdma, part),
            spec_.ib_prop_intra_rack);
  // Partition every cross link in both directions: nothing can cross, so
  // nothing bounds the window.
  fabric.degrade_link(2, 0, 0.0, 1.0);
  fabric.degrade_link(2, 1, 0.0, 1.0);
  fabric.degrade_link(3, 0, 0.0, 1.0);
  fabric.degrade_link(3, 1, 0.0, 1.0);
  EXPECT_EQ(fabric.min_cross_propagation(whale::net::Transport::kRdma, part),
            whale::net::Fabric::kNoCrossLinks);
}

// ---------------------------------------------------------------------------
// 3. Engine fingerprint parity at every thread count
// ---------------------------------------------------------------------------

whale::core::EngineConfig probe_config(whale::core::SystemVariant v) {
  whale::core::EngineConfig cfg;
  cfg.cluster.num_nodes = 8;
  cfg.cluster.cores_per_node = 16;
  cfg.variant = v;
  cfg.seed = 42;
  return cfg;
}

whale::apps::RideHailingAppParams probe_ride_params() {
  whale::apps::RideHailingAppParams p;
  p.matching_parallelism = 32;
  p.aggregation_parallelism = 4;
  p.driver_spout_parallelism = 2;
  p.request_rate = whale::dsps::RateProfile::constant(3000);
  p.driver_rate = whale::dsps::RateProfile::constant(2000);
  return p;
}

// Guards the parity test against passing vacuously: the partitioned
// kernel must actually engage for eligible configs (and must not for
// threads <= 1 or feature sets the conservative windows cannot cover).
TEST(ParallelEngineParity, ParallelPathEngagesWhenEligible) {
  const auto topo =
      whale::apps::build_ride_hailing(probe_ride_params()).topology;
  {
    auto cfg = probe_config(whale::core::SystemVariant::Storm());
    cfg.sim.threads = 4;
    whale::core::Engine e(cfg, topo);
    EXPECT_TRUE(e.parallel());
  }
  {
    auto cfg = probe_config(whale::core::SystemVariant::Storm());
    whale::core::Engine e(cfg, topo);  // threads unset: serial path
    EXPECT_FALSE(e.parallel());
  }
  {
    auto cfg = probe_config(whale::core::SystemVariant::Storm());
    cfg.sim.threads = 4;
    cfg.enable_acking = true;  // acker state is cross-partition: serial
    whale::core::Engine e(cfg, topo);
    EXPECT_FALSE(e.parallel());
  }
}

std::map<std::string, std::string> load_baseline() {
  const std::string path =
      std::string(WHALE_SOURCE_DIR) + "/results/fingerprints_baseline.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing baseline file: " << path;
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    out[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return out;
}

// Every probe (including the ones that fall back to serial: the optimized
// RDMA transport, the non-blocking tree, the seeded fault plan) must match
// the committed baseline at every thread count. The fingerprint embeds
// events=, so this is also the event-count parity assertion. threads=1
// takes the literal serial path and is covered by test_fingerprint.
TEST(ParallelEngineParity, AllProbesMatchBaselineAtEveryThreadCount) {
  const auto baseline = load_baseline();
  const int hw =
      static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  std::vector<int> counts = {2, 4};
  if (hw != 2 && hw != 4) counts.push_back(hw);
  for (const int threads : counts) {
    for (const auto& label : whale::apps::fingerprint_probe_labels()) {
      const auto got = whale::apps::run_fingerprint_probe(
          label, [threads](whale::core::EngineConfig& cfg) {
            cfg.sim.threads = threads;
          });
      auto it = baseline.find(got.label);
      ASSERT_NE(it, baseline.end()) << got.label;
      EXPECT_EQ(got.fingerprint, it->second)
          << got.label << " at threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// 4. Eligibility matrix: every disqualifying knob names itself
// ---------------------------------------------------------------------------

// One knob flipped per case, on top of an otherwise-eligible config
// (Storm variant, threads=4, 8 nodes). setup_parallel checks the knobs in
// a fixed order and fallback_reason must name the FIRST disqualifying
// one, so each expectation here pins both the decision and the order.
TEST(ParallelEligibility, EachKnobNamesItselfInFallbackReason) {
  using whale::core::EngineConfig;
  const auto topo =
      whale::apps::build_ride_hailing(probe_ride_params()).topology;
  struct Case {
    const char* expect;
    std::function<void(EngineConfig&)> flip;
  };
  const Case cases[] = {
      {"not_requested", [](EngineConfig& c) { c.sim.threads = 0; }},
      {"not_requested", [](EngineConfig& c) { c.sim.threads = 1; }},
      {"acking", [](EngineConfig& c) { c.enable_acking = true; }},
      {"faults",
       [](EngineConfig& c) {
         c.faults.crashes.push_back(
             {/*node=*/1, /*at=*/whale::ms(10),
              /*restart_after=*/whale::ms(5)});
       }},
      // Elastic rescaling mutates the task set mid-run; it is checked
      // before state (which it requires, so both knobs are on here).
      {"elastic",
       [](EngineConfig& c) {
         c.state.enabled = true;
         c.elastic.enabled = true;
       }},
      {"state", [](EngineConfig& c) { c.state.enabled = true; }},
      {"obs", [](EngineConfig& c) { c.obs.metrics_enabled = true; }},
      {"obs", [](EngineConfig& c) { c.obs.tracing_enabled = true; }},
      {"optimized_rdma",
       [](EngineConfig& c) {
         c.variant = whale::core::SystemVariant::WhaleWocRdma();
       }},
      // The full Whale variant rides the optimized transport AND the
      // non-blocking tree; the transport is checked first.
      {"optimized_rdma",
       [](EngineConfig& c) {
         c.variant = whale::core::SystemVariant::Whale();
       }},
      {"nonblocking_mcast",
       [](EngineConfig& c) {
         c.variant = {whale::core::CommMode::kWorker,
                      whale::core::TransportMode::kRdmaSendRecv,
                      whale::core::McastMode::kNonblocking};
       }},
  };
  for (const auto& cs : cases) {
    SCOPED_TRACE(cs.expect);
    auto cfg = probe_config(whale::core::SystemVariant::Storm());
    cfg.sim.threads = 4;
    cs.flip(cfg);
    whale::core::Engine e(cfg, topo);
    const auto& d = e.parallel_decision();
    EXPECT_FALSE(e.parallel());
    EXPECT_FALSE(d.engaged);
    EXPECT_EQ(d.fallback_reason, cs.expect);
    EXPECT_EQ(d.num_partitions, 0);
  }
}

TEST(ParallelEligibility, LoadAwareStrategyFallsBack) {
  // po2c reads live cross-partition queue depths at routing time — the
  // one disqualifier that lives in the topology, not the config.
  struct OneSpout : whale::dsps::Spout {
    whale::dsps::Tuple next(whale::Rng&) override { return {}; }
  };
  struct OneBolt : whale::dsps::Bolt {
    Duration execute(const whale::dsps::Tuple&,
                     whale::dsps::Emitter&) override {
      return us(2);
    }
  };
  whale::dsps::TopologyBuilder b;
  const int s = b.add_spout(
      "s", [] { return std::make_unique<OneSpout>(); }, 1,
      whale::dsps::RateProfile::constant(500));
  const int m = b.add_bolt(
      "m", [] { return std::make_unique<OneBolt>(); }, 4);
  b.connect(s, m, whale::dsps::Grouping::kLoadAwareShuffle);
  auto cfg = probe_config(whale::core::SystemVariant::Storm());
  cfg.sim.threads = 4;
  whale::core::Engine e(cfg, b.build());
  EXPECT_FALSE(e.parallel());
  EXPECT_EQ(e.parallel_decision().fallback_reason, "load_aware_strategy");
}

TEST(ParallelEligibility, SingleNodeClusterFallsBack) {
  auto cfg = probe_config(whale::core::SystemVariant::Storm());
  cfg.cluster.num_nodes = 1;
  cfg.sim.threads = 4;
  whale::core::Engine e(
      cfg, whale::apps::build_ride_hailing(probe_ride_params()).topology);
  EXPECT_FALSE(e.parallel());
  EXPECT_EQ(e.parallel_decision().fallback_reason, "single_partition");
}

TEST(ParallelEligibility, AllClearEngagesWithPerNodePartitions) {
  const auto topo =
      whale::apps::build_ride_hailing(probe_ride_params()).topology;
  {
    auto cfg = probe_config(whale::core::SystemVariant::Storm());
    cfg.sim.threads = 4;
    whale::core::Engine e(cfg, topo);
    const auto& d = e.parallel_decision();
    EXPECT_TRUE(d.engaged);
    EXPECT_EQ(d.fallback_reason, "");
    EXPECT_EQ(d.num_partitions, 8);  // one per node, spout nodes included
    EXPECT_EQ(d.threads, 4);
    // The decision must surface through the report too.
    const auto& r = e.run(whale::ms(10), whale::ms(20));
    EXPECT_TRUE(r.parallel.engaged);
    EXPECT_EQ(r.parallel.num_partitions, 8);
  }
  {
    // More threads than partitions: executing threads are clamped.
    auto cfg = probe_config(whale::core::SystemVariant::Storm());
    cfg.sim.threads = 32;
    whale::core::Engine e(cfg, topo);
    EXPECT_EQ(e.parallel_decision().threads, 8);
  }
}

// ---------------------------------------------------------------------------
// 5. Partition-map properties and the merge total order
// ---------------------------------------------------------------------------

// Randomized (seeded) topology shapes and cluster sizes: the engaged map
// must cover all nodes with every partition id in range, anchor partition
// 0, and put spout-hosting nodes in DISTINCT partitions — the per-spout
// split; the old fold collapsed them all into partition 0.
TEST(ParallelPartitionMap, RandomTopologiesCoverNodesAndSplitSpouts) {
  struct MiniSpout : whale::dsps::Spout {
    whale::dsps::Tuple next(whale::Rng& rng) override {
      whale::dsps::Tuple t;
      t.values.emplace_back(static_cast<int64_t>(rng.next_below(64)));
      return t;
    }
  };
  struct MiniBolt : whale::dsps::Bolt {
    Duration execute(const whale::dsps::Tuple&,
                     whale::dsps::Emitter&) override {
      return us(2);
    }
  };
  whale::Rng rng(2026);
  for (int iter = 0; iter < 12; ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    const int nodes = 2 + static_cast<int>(rng.next_below(15));
    whale::dsps::TopologyBuilder b;
    const int num_spout_ops = 1 + static_cast<int>(rng.next_below(3));
    std::vector<int> spout_parallelism;
    std::vector<int> spout_ids;
    for (int sp = 0; sp < num_spout_ops; ++sp) {
      const int par = 1 + static_cast<int>(rng.next_below(4));
      spout_parallelism.push_back(par);
      spout_ids.push_back(b.add_spout(
          "s" + std::to_string(sp),
          [] { return std::make_unique<MiniSpout>(); }, par,
          whale::dsps::RateProfile::constant(300)));
    }
    const int sink = b.add_bolt(
        "sink", [] { return std::make_unique<MiniBolt>(); },
        1 + static_cast<int>(rng.next_below(4)));
    for (int s : spout_ids) {
      b.connect(s, sink,
                rng.next_below(2) ? whale::dsps::Grouping::kShuffle
                                  : whale::dsps::Grouping::kFields);
    }
    auto cfg = probe_config(whale::core::SystemVariant::Storm());
    cfg.cluster.num_nodes = nodes;
    cfg.sim.threads = 2 + static_cast<int>(rng.next_below(7));
    whale::core::Engine e(cfg, b.build());
    ASSERT_TRUE(e.parallel());
    const auto map = e.node_partition_map();
    const int parts = e.parallel_decision().num_partitions;
    ASSERT_EQ(map.size(), static_cast<size_t>(nodes));
    std::set<int> used;
    for (int p : map) {
      ASSERT_GE(p, 0);
      ASSERT_LT(p, parts);
      used.insert(p);
    }
    // The map covers every partition (no empty shards) and anchors 0.
    EXPECT_EQ(static_cast<int>(used.size()), parts);
    EXPECT_TRUE(used.count(0));
    // Spout placement mirrors build_runtime: instance i of an operator
    // lands on node i % nodes. Distinct spout-hosting nodes must map to
    // distinct partitions — the fold into partition 0 is gone.
    std::set<int> spout_nodes;
    for (int par : spout_parallelism) {
      for (int i = 0; i < par; ++i) spout_nodes.insert(i % nodes);
    }
    std::set<int> spout_parts;
    for (int n : spout_nodes) {
      spout_parts.insert(map[static_cast<size_t>(n)]);
    }
    EXPECT_EQ(spout_parts.size(), spout_nodes.size())
        << "spout-hosting nodes share a partition";
  }
}

// Pins the merge key itself: entries landing on one destination with ties
// in arrival time must execute ordered by (time, src_partition, append
// index) — and identically at every thread count. Distinct keys always
// compare strictly one way (a total order): ties on time break by src,
// ties on (time, src) break by append index.
TEST(ParallelKernel, CrossPartitionMergeOrderIsATotalOrder) {
  const std::vector<int> expected = {0,  1,  10, 11, 20, 21,  // t = 5us
                                     2,  12, 22};             // t = 7us
  for (int threads : {1, 2, 4}) {
    std::vector<int> node_part = {0, 1, 2, 3};
    whale::sim::ParallelSimulation ps(node_part, 4, threads);
    ps.set_lookahead(us(5));
    // Execution order at the destination, single-writer (partition 3).
    std::vector<int> order;
    for (int src = 0; src < 3; ++src) {
      ps.partition(src).schedule_at(0, [&ps, &order, src] {
        // Append order within a src: tag src*10+0 before src*10+1 at the
        // same arrival time; src*10+2 arrives later than both.
        ps.post_after(3, us(5) + us(2),
                      [&order, src] { order.push_back(src * 10 + 2); });
        ps.post_after(3, us(5),
                      [&order, src] { order.push_back(src * 10 + 0); });
        ps.post_after(3, us(5),
                      [&order, src] { order.push_back(src * 10 + 1); });
      });
    }
    ps.run_until(whale::ms(1));
    EXPECT_EQ(order, expected) << "threads=" << threads;
  }
}

}  // namespace

// Fault-injection & recovery acceptance tests:
//  (a) crashing a relay excises it from the tree, re-parents its subtree,
//      and delivery resumes;
//  (b) roots un-acked because of a crash are replayed by the spout and
//      eventually complete once the node is back, or are written off
//      after three replays; a replay waits for its spout's node;
//  (c) two runs with the same fault plan produce byte-identical reports;
//  (d) d* switches and crash repairs share one ACK-paced protocol: an ACK
//      counts only for the change in flight, and a restart during a
//      switch keeps the restored endpoint in the tree;
//  (e) the engine fires a plan kind by kind and refuses a malformed one by
//      the name of the entry and field.
#include <gtest/gtest.h>

#include "apps/ride_hailing_app.h"
#include "core/engine.h"
#include "faults/plan.h"

namespace whale::core {
namespace {

class SmallSpout : public dsps::Spout {
 public:
  dsps::Tuple next(Rng&) override {
    dsps::Tuple t;
    t.values.emplace_back(std::string(100, 'x'));
    return t;
  }
};

class NopBolt : public dsps::Bolt {
 public:
  explicit NopBolt(Duration exec) : exec_(exec) {}
  Duration execute(const dsps::Tuple&, dsps::Emitter&) override {
    return exec_;
  }

 private:
  Duration exec_;
};

dsps::Topology broadcast_topo(double rate, int parallelism,
                              Duration exec = us(1)) {
  dsps::TopologyBuilder b;
  const int s = b.add_spout(
      "s", [] { return std::make_unique<SmallSpout>(); }, 1,
      dsps::RateProfile::constant(rate));
  const int m = b.add_bolt(
      "m", [exec] { return std::make_unique<NopBolt>(exec); }, parallelism);
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

// --- (a) relay crash: subtree re-parented, delivery resumes ---------------

TEST(Faults, RelayCrashRepairsTreeAndDeliveryResumes) {
  // d* pinned to 1 makes the tree a chain 0 -> 1 -> 2 -> 3 -> 4 -> 5, so
  // every interior endpoint is a relay. With 12 instances on 6 nodes the
  // endpoint order matches worker ids.
  EngineConfig c = base_cfg(6);
  c.initial_dstar = 1;
  c.self_adjust = false;
  c.faults.crash(/*node=*/2, /*at=*/ms(300));  // never restarts
  // Bolt service (5 ms) exceeds the 2 ms inter-arrival gap, so every
  // instance — including the doomed relay's — always has queued input.
  // Draining the dead node's queues therefore records a nonzero loss.
  Engine e(c, broadcast_topo(500.0, 12, ms(5)));
  const auto& r = e.run(ms(100), ms(700));

  EXPECT_EQ(r.node_crashes, 1u);
  EXPECT_EQ(r.node_restarts, 0u);
  EXPECT_GE(r.tree_repairs, 1u);
  EXPECT_GE(r.repair_moves, 1u);  // the orphaned subtree was re-parented
  // Re-establishing the orphan's upstream connection dominates the repair.
  EXPECT_GE(r.repair_time_max, c.switch_connection_setup);

  const auto& tree = e.group_tree(0);
  EXPECT_TRUE(tree.removed(2));
  EXPECT_EQ(tree.validate(/*dstar=*/1), "");
  // The chain shrank by the dead relay but stays connected end to end.
  EXPECT_EQ(tree.depth(), tree.num_destinations() - 1);

  // Delivery resumes after the crash: the throughput series shows traffic
  // in the final stretch of the window, long after the crash at t=300ms.
  const auto& s = r.tput_series;
  ASSERT_GT(s.num_bins(), 0u);
  double tail = 0.0;
  for (size_t i = s.num_bins() >= 5 ? s.num_bins() - 5 : 0;
       i < s.num_bins(); ++i) {
    tail += s.bin_value(i);
  }
  EXPECT_GT(tail, 0.0);
  // The dead node's traffic was actually dropped somewhere.
  EXPECT_GT(r.tuples_lost + r.fabric_messages_dropped, 0u);
}

// --- (b) crash window replayed via the acker ------------------------------

TEST(Faults, UnackedRootsFromCrashWindowAreReplayed) {
  EngineConfig c = base_cfg(6);
  c.enable_acking = true;
  c.ack_timeout = ms(150);
  // Worker 3 dies at 300ms and is back at 500ms: roots emitted in the
  // crash window cannot ack (two destination instances live on node 3),
  // time out, and the spout replays them until the node is back.
  c.faults.crash(/*node=*/3, /*at=*/ms(300), /*restart_after=*/ms(200));
  Engine e(c, broadcast_topo(200.0, 12));
  const auto& r = e.run(ms(100), ms(900));

  EXPECT_EQ(r.node_crashes, 1u);
  EXPECT_EQ(r.node_restarts, 1u);
  EXPECT_GE(r.downtime_total, ms(200));
  EXPECT_GT(r.failed_roots, 0u);
  EXPECT_GT(r.replayed_roots, 0u);
  // At-least-once across the crash: replayed roots eventually complete.
  EXPECT_GT(r.replay_completions, 0u);
  EXPECT_GT(r.acked_roots, 0u);
  // The restarted node rejoined the dissemination tree.
  const auto& tree = e.group_tree(0);
  EXPECT_EQ(tree.num_removed(), 0);
  EXPECT_EQ(tree.validate(), "");
}

TEST(Faults, ReplaysExhaustAgainstADeadDestination) {
  // Node 3 dies at 200 ms for good. Every root emitted after that misses
  // two destination instances, so it times out and each of its three
  // replays times out again, until it is written off.
  EngineConfig c = base_cfg(6);
  c.enable_acking = true;
  c.ack_timeout = ms(50);
  c.faults.crash(/*node=*/3, /*at=*/ms(200));
  Engine e(c, broadcast_topo(200.0, 12));
  const auto& r = e.run(ms(100), ms(700));

  EXPECT_EQ(r.failed_roots, 325u);
  EXPECT_EQ(r.replayed_roots, 262u);
  EXPECT_EQ(r.replays_exhausted, 72u);
  EXPECT_EQ(r.replay_completions, 0u);
}

TEST(Faults, ReplayWaitsForItsSpoutNode) {
  // As above, but node 3 comes back at 600 ms, and the spout's own node 0
  // is down from 300 to 500 ms. A root that fails meanwhile cannot be
  // re-emitted: its replay re-arms every 50 ms until node 0 is back. The
  // roots replayed after 600 ms complete.
  EngineConfig c = base_cfg(6);
  c.enable_acking = true;
  c.ack_timeout = ms(50);
  c.faults.crash(/*node=*/3, /*at=*/ms(200), /*restart_after=*/ms(400));
  c.faults.crash(/*node=*/0, /*at=*/ms(300), /*restart_after=*/ms(200));
  Engine e(c, broadcast_topo(200.0, 12));
  const auto& r = e.run(ms(100), ms(900));

  EXPECT_EQ(r.node_restarts, 2u);
  EXPECT_EQ(r.failed_roots, 93u);
  EXPECT_EQ(r.replayed_roots, 87u);
  EXPECT_EQ(r.replay_completions, 33u);
  EXPECT_EQ(r.replays_exhausted, 6u);
}

// --- (c) reproducibility ---------------------------------------------------

TEST(Faults, SameFaultSeedProducesIdenticalReports) {
  auto run_once = [] {
    EngineConfig c = base_cfg(6);
    c.enable_acking = true;
    c.ack_timeout = ms(150);
    c.faults = faults::FaultPlan::random(/*seed=*/7, /*num_nodes=*/6,
                                         /*horizon=*/ms(600),
                                         /*num_faults=*/4);
    Engine e(c, broadcast_topo(400.0, 12));
    return e.run(ms(100), ms(700)).fingerprint();
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// --- (d) tree changes under crashes ---------------------------------------

// The fig13 ride-hailing shape (Whale, 8 nodes) starting from a chain
// (d* = 1) with the d* controller sampling every 10 ms, so a scale-up
// switch starts at 20 ms and a second one follows whenever the tree is
// free.
EngineConfig ride_switch_cfg() {
  EngineConfig c;
  c.cluster.num_nodes = 8;
  c.cluster.cores_per_node = 16;
  c.variant = SystemVariant::Whale();
  c.seed = 42;
  c.initial_dstar = 1;
  c.controller.sample_interval = ms(10);
  return c;
}

dsps::Topology ride_topo() {
  apps::RideHailingAppParams p;
  p.matching_parallelism = 32;
  p.aggregation_parallelism = 4;
  p.driver_spout_parallelism = 2;
  p.request_rate = dsps::RateProfile::constant(3000);
  p.driver_rate = dsps::RateProfile::constant(2000);
  return apps::build_ride_hailing(p).topology;
}

TEST(Faults, StaleSwitchAckDoesNotEndRepair) {
  // The switch begun at 20 ms sends w5 a reconfigure. Node 4 crashing at
  // 50 ms aborts that switch, and the repair of the chain sends w5 a
  // second reconfigure. The switch's ACK lands 30 ms into the repair; the
  // repair must wait for its own ACK, one connection setup after it
  // began.
  EngineConfig c = ride_switch_cfg();
  c.faults.crash(/*node=*/4, /*at=*/ms(50), /*restart_after=*/ms(50));
  Engine e(c, ride_topo());
  const auto& r = e.run(ms(100), ms(300));
  ASSERT_GE(r.tree_repairs, 1u);
  EXPECT_GE(r.repair_moves, 1u);
  EXPECT_GE(r.repair_time_max, c.switch_connection_setup);
}

TEST(Faults, RestartDuringSwitchRejoinsTree) {
  // Node 4 crashes at 5 ms: its repair runs 5-65 ms, a switch starts at
  // 80 ms, and the restart at 100 ms lands in the middle of it. The
  // restored endpoint must stay in the tree once the switch settles, or
  // no tuple ever reaches every destination again.
  EngineConfig c = ride_switch_cfg();
  c.faults.crash(/*node=*/4, /*at=*/ms(5), /*restart_after=*/ms(95));
  Engine e(c, ride_topo());
  const auto& r = e.run(ms(100), ms(300));
  EXPECT_EQ(r.node_restarts, 1u);
  const auto& tree = e.group_tree(0);
  for (int ep = 1; ep < tree.num_nodes(); ++ep) {
    EXPECT_FALSE(tree.removed(ep)) << "endpoint " << ep;
  }
  EXPECT_EQ(tree.validate(), "");
  EXPECT_GT(r.multicast_latency.count(), 0u);
}

// --- smaller fault-model checks -------------------------------------------

TEST(Faults, PartitionedLinkDropsAndRestores) {
  EngineConfig c = base_cfg(4);
  c.faults.partition(/*src=*/0, /*dst=*/1, /*at=*/ms(200),
                     /*duration=*/ms(200));
  Engine e(c, broadcast_topo(500.0, 8));
  const auto& r = e.run(ms(100), ms(600));
  EXPECT_EQ(r.link_faults, 1u);
  EXPECT_GT(r.fabric_messages_dropped, 0u);
  // After restoration traffic flows again end to end.
  const auto& s = r.tput_series;
  double tail = 0.0;
  for (size_t i = s.num_bins() >= 5 ? s.num_bins() - 5 : 0;
       i < s.num_bins(); ++i) {
    tail += s.bin_value(i);
  }
  EXPECT_GT(tail, 0.0);
}

TEST(Faults, PartitionLossesReachTheReport) {
  // Every link partitioned for 50 ms: TCP messages refused at fabric entry
  // (Storm) and QP packets dropped there (RDMA-Storm) are data losses, so
  // the report counts exactly what the obs data ledger counts.
  for (const SystemVariant& v :
       {SystemVariant::Storm(), SystemVariant::RdmaStorm()}) {
    SCOPED_TRACE(v.name());
    EngineConfig c = base_cfg(4);
    c.variant = v;
    c.seed = 3;
    c.obs.metrics_enabled = true;
    for (int src = 0; src < 4; ++src) {
      for (int dst = 0; dst < 4; ++dst) {
        if (src != dst) c.faults.partition(src, dst, ms(100), ms(50));
      }
    }
    Engine e(c, broadcast_topo(2000.0, 8));
    const auto& r = e.run(ms(50), ms(250));
    auto count = [&e](const char* name) {
      return e.metrics().find_counter(name)->value();
    };
    const uint64_t ledger = count("obs.tuples_lost_engine") +
                            count("obs.tuples_lost_qp") +
                            count("obs.qp_fabric_drops");
    EXPECT_GT(ledger, 0u);
    EXPECT_EQ(r.tuples_lost, ledger);
  }
}

TEST(Faults, RelayStallFreezesThenDrains) {
  EngineConfig c = base_cfg(4);
  c.faults.stall(/*node=*/0, /*at=*/ms(200), /*duration=*/ms(100));
  Engine e(c, broadcast_topo(500.0, 8));
  const auto& r = e.run(ms(100), ms(500));
  EXPECT_EQ(r.relay_stalls, 1u);
  // Nothing is lost by a stall; throughput catches up once it drains.
  EXPECT_EQ(r.tuples_lost, 0u);
  EXPECT_GT(r.mcast_throughput_tps, 0.0);
}

TEST(Faults, DegradedLinkSlowsButDelivers) {
  EngineConfig c = base_cfg(4);
  c.faults.degrade(/*src=*/0, /*dst=*/1, /*at=*/ms(150),
                   /*duration=*/0 /* permanent */,
                   /*bandwidth_factor=*/0.25, /*latency_factor=*/3.0);
  Engine e(c, broadcast_topo(300.0, 8));
  const auto& r = e.run(ms(100), ms(500));
  EXPECT_EQ(r.link_faults, 1u);
  EXPECT_EQ(r.fabric_messages_dropped, 0u);  // degraded, not partitioned
  EXPECT_GT(r.mcast_roots, 0u);
}

TEST(Faults, OverlappingLinkFaultsEndSeparately) {
  // Faults on one link stack: the one started last applies, and a fault's
  // end lifts only itself. A 100-150 ms partition of 0 -> 1 laid over a
  // permanent one from 120 ms drops more than the permanent one alone,
  // because the permanent partition outlives the short one's end.
  auto drops = [](bool overlap) {
    EngineConfig c = base_cfg(4);
    c.variant = SystemVariant::Storm();
    c.faults.partition(/*src=*/0, /*dst=*/1, ms(120), /*duration=*/0);
    if (overlap) c.faults.partition(0, 1, ms(100), ms(50));
    Engine e(c, broadcast_topo(500.0, 8));
    const auto& r = e.run(ms(50), ms(400));
    EXPECT_EQ(r.link_faults, overlap ? 2u : 1u);
    return r.fabric_messages_dropped;
  };
  EXPECT_EQ(drops(false), 296u);
  EXPECT_EQ(drops(true), 312u);
}

// --- (e) plan scheduling and refusals -----------------------------------

TEST(Faults, PlanFiresInKindOrder) {
  // The plan is scheduled kind by kind — crashes, then link faults, then
  // stalls — each in plan order, so at equal times the kind order wins
  // over the order the plan was built in; a permanent degrade never
  // restores.
  EngineConfig c = base_cfg(4);
  c.obs.tracing_enabled = true;
  c.faults.stall(/*node=*/3, ms(150), ms(20))
      .partition(/*src=*/0, /*dst=*/1, ms(150), ms(20))
      .crash(/*node=*/2, ms(150), /*restart_after=*/ms(20))
      .degrade(/*src=*/1, /*dst=*/2, ms(160), /*duration=*/0, 0.5, 2.0);
  Engine e(c, broadcast_topo(500.0, 8));
  const auto& r = e.run(ms(100), ms(200));

  struct Fired {
    Time at;
    std::string name;
    int pid;
  };
  std::vector<Fired> fired;
  for (const obs::TraceEvent& ev : e.tracer().events()) {
    // Tree repairs and state restores are `fault` spans; the plan's
    // firings are its instants.
    if (std::string(ev.cat) != "fault" || ev.ph != 'i') continue;
    EXPECT_EQ(ev.tid, obs::kLaneControl);
    fired.push_back({ev.ts, ev.name, ev.pid});
  }
  const std::vector<Fired> want = {
      {ms(150), "fault.crash", 2},        {ms(150), "fault.link_degrade", 0},
      {ms(150), "fault.relay_stall", 3},  {ms(160), "fault.link_degrade", 1},
      {ms(170), "fault.restart", 2},      {ms(170), "fault.link_restore", 0},
      {ms(170), "fault.relay_unstall", 3}};
  ASSERT_EQ(fired.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(fired[i].at, want[i].at);
    EXPECT_EQ(fired[i].name, want[i].name);
    EXPECT_EQ(fired[i].pid, want[i].pid);
  }
  EXPECT_EQ(r.node_crashes, 1u);
  EXPECT_EQ(r.node_restarts, 1u);
  EXPECT_EQ(r.link_faults, 2u);
  EXPECT_EQ(r.relay_stalls, 1u);
  EXPECT_EQ(r.downtime_total, ms(20));
}

TEST(Faults, MalformedPlansAreRefusedByName) {
  // Construction refuses a plan the 6-node cluster cannot run and names the
  // offending entry and field; the remote-state host (node 6 when it is on)
  // is a fabric node for links but not a worker that can crash or stall.
  struct Row {
    const char* field;
    void (*plan)(EngineConfig&);
  };
  const Row rows[] = {
      {"faults.crashes[0].node",
       [](EngineConfig& c) { c.faults.crash(6, ms(10)); }},
      {"faults.crashes[0].node",
       [](EngineConfig& c) { c.faults.crash(-1, ms(10)); }},
      {"faults.crashes[1].node",
       [](EngineConfig& c) {
         c.state.enabled = c.state.remote = true;
         c.faults.crash(1, ms(10)).crash(6, ms(20));
       }},
      {"faults.stalls[0].node",
       [](EngineConfig& c) { c.faults.stall(9, ms(10), ms(5)); }},
      {"faults.links[0].dst",
       [](EngineConfig& c) { c.faults.partition(1, 40, ms(10), ms(5)); }},
      {"faults.links[0].src",
       [](EngineConfig& c) { c.faults.partition(-1, 1, ms(10), ms(5)); }},
      {"faults.links[0].dst",
       [](EngineConfig& c) { c.faults.partition(2, 2, ms(10), ms(5)); }},
      {"faults.crashes[0].at",
       [](EngineConfig& c) { c.faults.crash(1, -ms(10)); }},
      {"faults.crashes[0].restart_after",
       [](EngineConfig& c) { c.faults.crash(1, ms(10), -ms(5)); }},
      {"faults.links[0].at",
       [](EngineConfig& c) { c.faults.partition(0, 1, -ms(1), ms(5)); }},
      {"faults.links[0].duration",
       [](EngineConfig& c) { c.faults.partition(0, 1, ms(10), -ms(5)); }},
      {"faults.stalls[0].at",
       [](EngineConfig& c) { c.faults.stall(1, -ms(1), ms(5)); }},
      {"faults.stalls[0].duration",
       [](EngineConfig& c) { c.faults.stall(1, ms(10), -ms(5)); }},
      {"faults.links[0].bandwidth_factor",
       [](EngineConfig& c) { c.faults.degrade(0, 1, ms(10), ms(5), -0.5); }},
      {"faults.links[0].latency_factor",
       [](EngineConfig& c) {
         c.faults.degrade(0, 1, ms(10), ms(5), 0.5, 0.0);
       }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.field);
    EngineConfig c = base_cfg(6);
    row.plan(c);
    try {
      Engine e(c, broadcast_topo(500.0, 8));
      ADD_FAILURE() << "plan accepted";
    } catch (const std::invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find(row.field), std::string::npos)
          << ex.what();
    }
  }
  // The state host is a link endpoint like any other node.
  EngineConfig c = base_cfg(6);
  c.state.enabled = c.state.remote = true;
  c.faults.degrade(6, 1, ms(10), ms(5), 0.5, 2.0);
  EXPECT_NO_THROW({ Engine e(c, broadcast_topo(500.0, 8)); });
}

}  // namespace
}  // namespace whale::core

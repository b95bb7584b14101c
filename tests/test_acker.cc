// Acker tests: the XOR ledger data structure (out-of-order tolerance,
// premature-completion guard, timeout failure) and the engine's ack-based
// "fully processed" tracking.
#include <gtest/gtest.h>

#include "apps/ride_hailing_app.h"
#include "core/engine.h"
#include "dsps/acker.h"

namespace whale::dsps {
namespace {

TEST(AckerLedger, SimpleTreeCompletes) {
  AckerLedger a;
  uint64_t done = 0;
  Time done_emit = 0;
  a.set_on_complete([&](uint64_t root, Time emit) {
    done = root;
    done_emit = emit;
  });
  a.root_emitted(7, ms(5));
  a.anchored(7, 100);
  a.anchored(7, 200);
  a.root_finished(7);
  EXPECT_EQ(done, 0u);  // edges still outstanding
  a.acked(7, 100);
  a.acked(7, 200);
  EXPECT_EQ(done, 7u);
  EXPECT_EQ(done_emit, ms(5));
  EXPECT_EQ(a.pending(), 0u);
  EXPECT_EQ(a.completed(), 1u);
}

TEST(AckerLedger, OutOfOrderAcksTolerated) {
  // XOR is commutative: an ack may even arrive before some later anchor.
  AckerLedger a;
  int completions = 0;
  a.set_on_complete([&](uint64_t, Time) { ++completions; });
  a.root_emitted(1, 0);
  a.anchored(1, 11);
  a.acked(1, 22);     // ack of a yet-unanchored edge
  a.anchored(1, 22);  // cancels it
  a.root_finished(1);
  EXPECT_EQ(completions, 0);
  a.acked(1, 11);
  EXPECT_EQ(completions, 1);
}

TEST(AckerLedger, OpenRootNeverCompletesEarly) {
  // Without root_finished, a transiently-zero ledger must not complete
  // (the spout may still be anchoring more edges).
  AckerLedger a;
  int completions = 0;
  a.set_on_complete([&](uint64_t, Time) { ++completions; });
  a.root_emitted(3, 0);
  a.anchored(3, 5);
  a.acked(3, 5);  // ledger back to 0 but root still open
  EXPECT_EQ(completions, 0);
  a.anchored(3, 6);
  a.root_finished(3);
  a.acked(3, 6);
  EXPECT_EQ(completions, 1);
}

TEST(AckerLedger, MultiLevelTree) {
  // root -> A -> {B, C}; A acks only after anchoring B and C.
  AckerLedger a;
  int completions = 0;
  a.set_on_complete([&](uint64_t, Time) { ++completions; });
  a.root_emitted(9, 0);
  a.anchored(9, 0x9d3f1a2b44c7e655);  // A
  a.root_finished(9);
  a.anchored(9, 0x1b06c4871f3e9a10);  // B (anchored by A)
  a.anchored(9, 0x77aa5290d3b8c3f4);  // C
  a.acked(9, 0x9d3f1a2b44c7e655);     // A done
  EXPECT_EQ(completions, 0);
  a.acked(9, 0x77aa5290d3b8c3f4);
  a.acked(9, 0x1b06c4871f3e9a10);
  EXPECT_EQ(completions, 1);
}

TEST(AckerLedger, SequentialIdsCanCollide) {
  // The reason edge ids must be random: XOR of sequential ids can hit
  // zero with edges still in flight (1 ^ 2 ^ 3 == 0). The ledger itself
  // cannot detect this — id generation is responsible for entropy.
  AckerLedger a;
  int completions = 0;
  a.set_on_complete([&](uint64_t, Time) { ++completions; });
  a.root_emitted(9, 0);
  a.anchored(9, 1);
  a.root_finished(9);
  a.anchored(9, 2);
  a.anchored(9, 3);  // 1^2^3 == 0: premature "completion"
  EXPECT_EQ(completions, 1);
}

TEST(AckerLedger, FailRemovesAndCounts) {
  AckerLedger a;
  int fails = 0;
  a.set_on_fail([&](uint64_t) { ++fails; });
  a.root_emitted(4, 0);
  a.anchored(4, 77);
  a.fail(4);
  EXPECT_EQ(fails, 1);
  EXPECT_EQ(a.pending(), 0u);
  // Late acks for a failed root are ignored.
  a.acked(4, 77);
  EXPECT_EQ(a.completed(), 0u);
}

TEST(AckerLedger, OutOfOrderAckAfterFailureIsIgnored) {
  // A failure (timeout or drop) erases the entry; acks and anchors that
  // were still in flight when the root failed must land harmlessly and
  // must not resurrect the entry or complete a dead root.
  AckerLedger a;
  int completions = 0;
  int fails = 0;
  a.set_on_complete([&](uint64_t, Time) { ++completions; });
  a.set_on_fail([&](uint64_t) { ++fails; });
  a.root_emitted(5, 0);
  a.anchored(5, 10);
  a.anchored(5, 20);
  a.root_finished(5);
  a.acked(5, 10);
  a.fail(5);  // e.g. node hosting edge 20's consumer crashed
  EXPECT_EQ(fails, 1);
  EXPECT_FALSE(a.tracking(5));
  // Straggler messages from before the failure arrive out of order.
  a.acked(5, 20);
  a.anchored(5, 30);
  a.acked(5, 30);
  a.root_finished(5);
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(a.pending(), 0u);
  EXPECT_EQ(a.completed(), 0u);
}

TEST(AckerLedger, ReplayedRootReRegistersAndCompletes) {
  // At-least-once replay: after a failure the spout re-emits the SAME
  // root id. root_emitted must open a fresh, completable entry whose
  // ledger is untainted by the failed attempt's outstanding edges.
  AckerLedger a;
  uint64_t done = 0;
  Time done_emit = 0;
  a.set_on_complete([&](uint64_t root, Time emit) {
    done = root;
    done_emit = emit;
  });
  a.root_emitted(42, ms(10));
  a.anchored(42, 111);
  a.anchored(42, 222);
  a.root_finished(42);
  a.acked(42, 111);
  a.fail(42);  // edge 222 never acked: timed out
  EXPECT_EQ(a.failed(), 1u);

  // Replay with a new emit time and fresh edge ids.
  a.root_emitted(42, ms(500));
  EXPECT_TRUE(a.tracking(42));
  a.anchored(42, 333);
  a.anchored(42, 444);
  a.root_finished(42);
  a.acked(42, 444);
  EXPECT_EQ(done, 0u);  // 333 outstanding
  a.acked(42, 333);
  EXPECT_EQ(done, 42u);
  EXPECT_EQ(done_emit, ms(500));  // latency measured from the replay
  EXPECT_EQ(a.completed(), 1u);
  EXPECT_EQ(a.failed(), 1u);
}

TEST(AckerLedger, DoubleFailIsIdempotent) {
  // A root can be failed twice (explicit drop racing the timeout sweep);
  // the second fail must be a no-op: one callback, one count.
  AckerLedger a;
  int fails = 0;
  a.set_on_fail([&](uint64_t) { ++fails; });
  a.root_emitted(8, 0);
  a.anchored(8, 77);
  a.fail(8);
  a.fail(8);
  EXPECT_EQ(fails, 1);
  EXPECT_EQ(a.failed(), 1u);
  EXPECT_EQ(a.pending(), 0u);
  // Expiry after the fact also finds nothing to fail.
  EXPECT_EQ(a.expire_older_than(ms(1000)), 0u);
  EXPECT_EQ(a.failed(), 1u);
}

TEST(AckerLedger, ExpireOlderThan) {
  AckerLedger a;
  a.root_emitted(1, ms(10));
  a.root_emitted(2, ms(20));
  a.root_emitted(3, ms(30));
  EXPECT_EQ(a.expire_older_than(ms(20)), 2u);
  EXPECT_EQ(a.pending(), 1u);
  EXPECT_TRUE(a.tracking(3));
  EXPECT_EQ(a.failed(), 2u);
}

TEST(AckerLedger, ManyInterleavedRoots) {
  AckerLedger a;
  uint64_t completions = 0;
  a.set_on_complete([&](uint64_t, Time) { ++completions; });
  for (uint64_t r = 1; r <= 100; ++r) {
    a.root_emitted(r, 0);
    for (uint64_t e = 0; e < 5; ++e) a.anchored(r, r * 1000 + e);
    a.root_finished(r);
  }
  // Ack everything in a scrambled order.
  for (uint64_t e = 4;; --e) {
    for (uint64_t r = 100; r >= 1; --r) a.acked(r, r * 1000 + e);
    if (e == 0) break;
  }
  EXPECT_EQ(completions, 100u);
  EXPECT_EQ(a.pending(), 0u);
}

}  // namespace
}  // namespace whale::dsps

namespace whale::core {
namespace {

TEST(EngineAcking, RootsFullyProcessedAreAcked) {
  apps::RideHailingAppParams p;
  p.workload.num_drivers = 500;
  p.matching_parallelism = 8;
  p.aggregation_parallelism = 2;
  p.driver_spout_parallelism = 1;
  p.request_rate = dsps::RateProfile::constant(400);
  p.driver_rate = dsps::RateProfile::constant(200);
  EngineConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.variant = SystemVariant::Whale();
  cfg.enable_acking = true;
  cfg.seed = 9;
  Engine e(cfg, apps::build_ride_hailing(p).topology);
  const auto& r = e.run(ms(200), ms(800));
  // At a sustainable rate (no drops) essentially every root in the window
  // completes its whole tuple tree.
  EXPECT_EQ(r.input_drops, 0u);
  EXPECT_EQ(r.failed_roots, 0u);
  EXPECT_GT(r.acked_roots, 0u);
  EXPECT_GT(static_cast<double>(r.acked_roots),
            0.8 * r.offered_tps * to_seconds(r.window));
  EXPECT_GT(r.ack_latency.count(), 0u);
  // The full tree takes at least as long as reaching the last instance.
  EXPECT_GE(r.ack_latency.mean_ns(), r.multicast_latency.mean_ns() * 0.9);
}

TEST(EngineAcking, OverloadFailsRoots) {
  apps::RideHailingAppParams p;
  p.workload.num_drivers = 500;
  p.matching_parallelism = 16;
  p.aggregation_parallelism = 2;
  p.driver_spout_parallelism = 1;
  p.request_rate = dsps::RateProfile::constant(30000);
  p.driver_rate = dsps::RateProfile::constant(1000);
  EngineConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.variant = SystemVariant::Storm();
  cfg.enable_acking = true;
  cfg.executor_queue_capacity = 256;
  cfg.seed = 9;
  cfg.obs.metrics_enabled = true;
  Engine e(cfg, apps::build_ride_hailing(p).topology);
  const auto& r = e.run(ms(100), ms(400));
  EXPECT_GT(r.failed_roots, 0u);
  // The spout queue never drains: each of the 10,548 dropped arrivals
  // fails at once, and its three replays bounce off the full queue in turn
  // before the root is written off. No replay ever completes.
  EXPECT_EQ(r.replays_exhausted, 10548u);
  EXPECT_EQ(r.replayed_roots, 31644u);
  EXPECT_EQ(r.replay_completions, 0u);
  // Whole-run spout-queue rejections: the dropped arrivals plus the
  // bounced replays.
  EXPECT_EQ(e.metrics().find_counter("obs.input_drops")->value(),
            10548u + 31644u);
}

TEST(EngineAcking, DisabledByDefaultCostsNothing) {
  apps::RideHailingAppParams p;
  p.workload.num_drivers = 200;
  p.matching_parallelism = 4;
  p.aggregation_parallelism = 1;
  p.driver_spout_parallelism = 1;
  p.request_rate = dsps::RateProfile::constant(200);
  p.driver_rate = dsps::RateProfile::constant(100);
  EngineConfig cfg;
  cfg.cluster.num_nodes = 2;
  cfg.seed = 3;
  Engine e(cfg, apps::build_ride_hailing(p).topology);
  const auto& r = e.run(ms(100), ms(300));
  EXPECT_EQ(r.acked_roots, 0u);
  EXPECT_EQ(r.failed_roots, 0u);
  EXPECT_EQ(r.ack_latency.count(), 0u);
}

}  // namespace
}  // namespace whale::core

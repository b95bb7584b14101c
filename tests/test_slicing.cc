// Stream slicing tests (Sec. 4) over a real queue pair: MMS-triggered
// flushes, WTL timer flushes, timer reset on consumption, ring-full
// backpressure and flushes larger than the ring (Slicing.*); and one
// channel end to end as the transport builds it, a slicing buffer over a
// QP: ordered delivery under every verb, intact payloads, MMS batching,
// the WTL tail flush and the verbs' CPU charges (ChannelTest.*).
#include <gtest/gtest.h>

#include "core/slicing.h"
#include "sim/simulation.h"

namespace whale::core {
namespace {

rdma::Packet packet(uint64_t bytes, uint64_t id = 0, uint8_t fill = 0xCD) {
  return rdma::Packet{
      std::make_shared<const std::vector<uint8_t>>(bytes, fill), 0, id};
}

// Node 0 slices onto a QP to node 1; `got` records deliveries.
struct Harness {
  explicit Harness(rdma::Verb verb, uint64_t ring = 4 * 1024 * 1024)
      : fabric(sim, [] {
          net::ClusterSpec spec;
          spec.num_nodes = 2;
          return spec;
        }()) {
    rdma::QpConfig qc;
    qc.ring_capacity = ring;
    qp = std::make_unique<rdma::QueuePair>(fabric, cost, verb, qc,
                                           rdma::QpEndpoint{0, &a},
                                           rdma::QpEndpoint{1, &b});
    qp->set_recv_handler(
        [this](rdma::Packet p) { got.push_back(std::move(p)); });
  }

  std::unique_ptr<SlicingBuffer> make(uint64_t mms, Duration wtl) {
    return std::make_unique<SlicingBuffer>(sim, mms, wtl, *qp);
  }

  sim::Simulation sim;
  net::Fabric fabric;
  net::CostModel cost;
  sim::CpuServer a{sim, "a"}, b{sim, "b"};
  std::unique_ptr<rdma::QueuePair> qp;
  std::vector<rdma::Packet> got;
};

TEST(Slicing, MmsTriggersImmediateFlush) {
  Harness h(rdma::Verb::kSendRecv);
  auto sl = h.make(1000, ms(10));
  sl->add(packet(400));
  sl->add(packet(400));
  EXPECT_EQ(sl->flushes(), 0u);  // 800 < MMS
  sl->add(packet(400));          // 1200 >= MMS
  EXPECT_EQ(sl->flushes(), 1u);  // one work request of all three
  EXPECT_EQ(h.qp->packets_sent(), 3u);
  EXPECT_EQ(sl->buffered_bytes(), 0u);
}

TEST(Slicing, WtlFlushesLightTraffic) {
  Harness h(rdma::Verb::kSendRecv);
  auto sl = h.make(1 << 20, ms(1));
  sl->add(packet(100));
  h.sim.run_until(us(900));
  EXPECT_EQ(sl->flushes(), 0u);
  h.sim.run_until(ms(2));
  EXPECT_EQ(sl->flushes(), 1u);
  EXPECT_EQ(sl->timer_flushes(), 1u);
}

TEST(Slicing, TimerResetsWhenWorkRequestConsumed) {
  Harness h(rdma::Verb::kSendRecv);
  auto sl = h.make(500, ms(1));
  sl->add(packet(600));  // immediate MMS flush consumes the work request
  EXPECT_EQ(sl->flushes(), 1u);
  h.sim.run_until(ms(5));
  EXPECT_EQ(sl->timer_flushes(), 0u);  // the stale timer must not fire
}

TEST(Slicing, TimerCoversOldestWaitingTuple) {
  Harness h(rdma::Verb::kSendRecv);
  auto sl = h.make(1 << 20, ms(1));
  sl->add(packet(10));
  h.sim.run_until(us(500));
  sl->add(packet(10));  // second tuple must not extend the first's wait
  h.sim.run_until(ms(1) + us(100));
  EXPECT_EQ(sl->flushes(), 1u);
  EXPECT_EQ(h.qp->packets_sent(), 2u);
}

TEST(Slicing, BackpressureHoldsBundleIntact) {
  Harness h(rdma::Verb::kRead, /*ring=*/1000);
  h.qp->transmit(rdma::Bundle{packet(1000)});  // ring full until READ
  auto sl = h.make(100, ms(1));
  sl->add(packet(200));
  EXPECT_TRUE(sl->blocked());
  EXPECT_EQ(sl->flushes(), 0u);
  EXPECT_EQ(sl->buffered_tuples(), 1u);
  // More tuples keep buffering while blocked.
  sl->add(packet(200));
  EXPECT_EQ(sl->buffered_tuples(), 2u);
  // The READ frees the ring: the retry flushes everything accumulated as
  // one work request.
  h.sim.run();
  EXPECT_EQ(sl->flushes(), 1u);
  EXPECT_EQ(sl->buffered_tuples(), 0u);
  EXPECT_FALSE(sl->blocked());
  EXPECT_EQ(h.got.size(), 3u);
}

TEST(Slicing, UnblockCallbacksFire) {
  Harness h(rdma::Verb::kRead, /*ring=*/1000);
  h.qp->transmit(rdma::Bundle{packet(1000)});
  auto sl = h.make(100, ms(1));
  sl->add(packet(200));
  ASSERT_TRUE(sl->blocked());
  int unblocked = 0;
  sl->on_unblock([&] { ++unblocked; });
  h.sim.run();
  EXPECT_EQ(unblocked, 1);
}

TEST(Slicing, LargerMmsFewerFlushes) {
  // The Fig. 11 mechanism: a bigger MMS amortizes work requests.
  for (const auto& [mms, expected_max] :
       {std::pair<uint64_t, uint64_t>{500, 25},
        std::pair<uint64_t, uint64_t>{5000, 3}}) {
    Harness h(rdma::Verb::kSendRecv);
    auto sl = h.make(mms, sec(10));
    for (int i = 0; i < 20; ++i) sl->add(packet(500));
    EXPECT_LE(sl->flushes(), expected_max) << "mms=" << mms;
    EXPECT_GE(sl->flushes(), 1u) << "mms=" << mms;
  }
}

TEST(Slicing, FlushLargerThanRingIsSplitIntoRingSizedWorkRequests) {
  // Ten 1,000 B packets against a 1,500 B ring, all at t = 0: the second
  // one already finds the ring full, and the backlog that builds behind it
  // (9,000 B) can only post as one-packet work requests.
  Harness h(rdma::Verb::kRead, /*ring=*/1500);
  auto sl = h.make(/*mms=*/0, ms(1));
  for (uint64_t i = 0; i < 10; ++i) sl->add(packet(1000, i));
  EXPECT_TRUE(sl->blocked());
  EXPECT_EQ(sl->buffered_tuples(), 9u);
  h.sim.run();
  ASSERT_EQ(h.got.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(h.got[i].id, i);
  EXPECT_EQ(sl->flushes(), 10u);
  EXPECT_FALSE(sl->blocked());
}

TEST(ChannelTest, DeliversInOrderAllVerbs) {
  for (const rdma::Verb verb :
       {rdma::Verb::kSendRecv, rdma::Verb::kWrite, rdma::Verb::kRead}) {
    SCOPED_TRACE(rdma::to_string(verb));
    Harness h(verb);
    auto sl = h.make(/*mms=*/0, ms(1));  // flush per message
    for (uint64_t i = 0; i < 50; ++i) sl->add(packet(100, i));
    h.sim.run();
    ASSERT_EQ(h.got.size(), 50u);
    for (uint64_t i = 0; i < 50; ++i) EXPECT_EQ(h.got[i].id, i);
    EXPECT_EQ(h.qp->packets_delivered(), 50u);
    EXPECT_EQ(sl->flushes(), 50u);
  }
}

TEST(ChannelTest, MmsBatchesIntoFewFlushes) {
  Harness h(rdma::Verb::kRead);
  auto sl = h.make(/*mms=*/10 * 1000, sec(10));  // timer out of the picture
  for (uint64_t i = 0; i < 25; ++i) sl->add(packet(1000, i));
  h.sim.run_until(sec(1));  // the parked 10 s WTL timer must not fire yet
  EXPECT_EQ(h.got.size(), 20u);  // two full MMS batches went out...
  EXPECT_EQ(sl->flushes(), 2u);
  EXPECT_EQ(sl->buffered_bytes(), 5000u);  // ...5 tuples still waiting
}

TEST(ChannelTest, WtlFlushesTheTail) {
  Harness h(rdma::Verb::kRead);
  auto sl = h.make(/*mms=*/1 << 20, ms(2));
  sl->add(packet(100, 1));
  h.sim.run_until(ms(1));
  EXPECT_TRUE(h.got.empty());
  h.sim.run_until(ms(4));
  ASSERT_EQ(h.got.size(), 1u);
  EXPECT_EQ(h.got[0].id, 1u);
}

TEST(ChannelTest, SendRecvChargesRemoteCpuReadDoesNot) {
  Harness two_sided(rdma::Verb::kSendRecv);
  Harness read(rdma::Verb::kRead);
  auto ts = two_sided.make(/*mms=*/0, ms(1));
  auto rd = read.make(/*mms=*/0, ms(1));
  for (uint64_t i = 0; i < 20; ++i) {
    ts->add(packet(500, i));
    rd->add(packet(500, i));
  }
  two_sided.sim.run();
  read.sim.run();
  ASSERT_EQ(two_sided.got.size(), 20u);
  ASSERT_EQ(read.got.size(), 20u);
  // Two-sided: posts cost the producer CPU and every receive completion
  // costs the consumer CPU. READ: the producer CPU stays untouched.
  EXPECT_GT(two_sided.a.busy_time(), 0);
  EXPECT_GT(two_sided.b.busy_time(), 0);
  EXPECT_EQ(read.a.busy_time(), 0);
}

TEST(ChannelTest, PayloadIntegrityThroughSlicing) {
  for (const rdma::Verb verb : {rdma::Verb::kSendRecv, rdma::Verb::kRead}) {
    SCOPED_TRACE(rdma::to_string(verb));
    // A 4 KiB ring splits the 3,000 B-plus flushes under READ.
    Harness h(verb, /*ring=*/4096);
    auto sl = h.make(3000, ms(1));
    for (uint64_t i = 0; i < 50; ++i) {
      sl->add(packet(100 + 40 * i, i, static_cast<uint8_t>(i)));
    }
    h.sim.run();
    ASSERT_EQ(h.got.size(), 50u);
    for (uint64_t i = 0; i < 50; ++i) {
      EXPECT_EQ(h.got[i].id, i);
      ASSERT_EQ(h.got[i].size(), 100 + 40 * i);
      EXPECT_EQ(std::vector<uint8_t>(*h.got[i].bytes),
                std::vector<uint8_t>(100 + 40 * i, static_cast<uint8_t>(i)));
    }
  }
}

}  // namespace
}  // namespace whale::core

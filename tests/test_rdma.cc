// RDMA model tests: ring memory region invariants, verb cost semantics
// (two-sided vs one-sided), READ-discipline batching and backpressure.
#include <gtest/gtest.h>

#include "net/fabric.h"
#include "rdma/ring_buffer.h"
#include "rdma/verbs.h"
#include "sim/cpu.h"
#include "sim/simulation.h"

namespace whale::rdma {
namespace {

// --- RingMemoryRegion ---------------------------------------------------------

TEST(RingMemoryRegion, ProduceConsumeCycle) {
  RingMemoryRegion ring(100);
  EXPECT_EQ(ring.free_bytes(), 100u);
  auto a = ring.produce(40);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 0u);
  auto b = ring.produce(40);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 40u);
  EXPECT_FALSE(ring.produce(40).has_value());  // only 20 left
  ring.consume(40);
  EXPECT_EQ(ring.free_bytes(), 60u);
  auto c = ring.produce(40);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(ring.physical_offset(*c), 80u % 100u);
}

TEST(RingMemoryRegion, RejectsOversizeAndZero) {
  RingMemoryRegion ring(64);
  EXPECT_FALSE(ring.produce(0).has_value());
  EXPECT_FALSE(ring.produce(65).has_value());
  EXPECT_TRUE(ring.produce(64).has_value());
}

TEST(RingMemoryRegion, ReuseCyclesWithoutReRegistration) {
  // The whole point of the ring: the same registered region is reused as
  // the RNIC consumes it.
  RingMemoryRegion ring(10);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ring.produce(10).has_value()) << i;
    ring.consume(10);
  }
  EXPECT_EQ(ring.reuse_cycles(), 100u);
  EXPECT_EQ(ring.produced_bytes(), 1000u);
  EXPECT_TRUE(ring.empty());
}

TEST(RingMemoryRegion, MaxUsedHighWaterMark) {
  RingMemoryRegion ring(100);
  ring.produce(30);
  ring.produce(50);
  ring.consume(30);
  ring.produce(10);
  EXPECT_EQ(ring.max_used(), 80u);
}

// --- QueuePair -------------------------------------------------------------------

class QpTest : public ::testing::Test {
 protected:
  QpTest() {
    spec_.num_nodes = 2;
    fabric_ = std::make_unique<net::Fabric>(sim_, spec_);
    cpu_a_ = std::make_unique<sim::CpuServer>(sim_, "a");
    cpu_b_ = std::make_unique<sim::CpuServer>(sim_, "b");
  }

  std::unique_ptr<QueuePair> make_qp(Verb verb, uint64_t ring = 1 << 20) {
    QpConfig qc;
    qc.ring_capacity = ring;
    return std::make_unique<QueuePair>(*fabric_, cost_, verb, qc,
                                       QpEndpoint{0, cpu_a_.get()},
                                       QpEndpoint{1, cpu_b_.get()});
  }

  Packet packet(uint64_t bytes, uint64_t id = 1) {
    return Packet{std::make_shared<const std::vector<uint8_t>>(bytes, 0xAA),
                  sim_.now(), id};
  }

  sim::Simulation sim_;
  net::ClusterSpec spec_;
  net::CostModel cost_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<sim::CpuServer> cpu_a_, cpu_b_;
};

TEST_F(QpTest, SendRecvDeliversAndChargesBothCpus) {
  auto qp = make_qp(Verb::kSendRecv);
  int delivered = 0;
  qp->set_recv_handler([&](Packet p) {
    ++delivered;
    EXPECT_EQ(p.size(), 1000u);
  });
  qp->transmit(Bundle{packet(1000)});
  sim_.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(cpu_a_->busy_time(), cost_.rdma_post);
  EXPECT_EQ(cpu_b_->busy_time(), cost_.rdma_twosided_recv_cpu);
  EXPECT_EQ(qp->send_cq().total(), 1u);
}

TEST_F(QpTest, WriteBypassesTargetCpuMostly) {
  auto qp = make_qp(Verb::kWrite);
  int delivered = 0;
  qp->set_recv_handler([&](Packet) { ++delivered; });
  qp->transmit(Bundle{packet(1000)});
  sim_.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(cpu_b_->busy_time(), cost_.rdma_write_completion_cpu);
  EXPECT_LT(cpu_b_->busy_time(), cost_.rdma_twosided_recv_cpu);
}

TEST_F(QpTest, ReadProducerPaysNothing) {
  auto qp = make_qp(Verb::kRead);
  int delivered = 0;
  qp->set_recv_handler([&](Packet) { ++delivered; });
  qp->transmit(Bundle{packet(1000)});
  sim_.run();
  EXPECT_EQ(delivered, 1);
  // Producer CPU fully bypassed: the consumer fetches with READ.
  EXPECT_EQ(cpu_a_->busy_time(), 0);
  EXPECT_GT(cpu_b_->busy_time(), 0);
}

TEST_F(QpTest, ReadBatchesSequentialMessages) {
  QpConfig qc;
  qc.read_batch_max = 10000;
  auto qp = std::make_unique<QueuePair>(*fabric_, cost_, Verb::kRead, qc,
                                        QpEndpoint{0, cpu_a_.get()},
                                        QpEndpoint{1, cpu_b_.get()});
  int delivered = 0;
  qp->set_recv_handler([&](Packet) { ++delivered; });
  // 20 units of 1000B posted back to back: the first READ grabs what is
  // pending when it fires; subsequent READs coalesce consecutive units up
  // to read_batch_max (10 units).
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(qp->transmit(Bundle{packet(1000, uint64_t(i))}));
  }
  sim_.run();
  EXPECT_EQ(delivered, 20);
  EXPECT_LT(qp->reads_issued(), 20u);  // batching really happened
  EXPECT_GE(qp->reads_issued(), 2u);
}

TEST_F(QpTest, ReadRingFullBackpressuresAndRecovers) {
  auto qp = make_qp(Verb::kRead, /*ring=*/1500);
  int delivered = 0;
  qp->set_recv_handler([&](Packet) { ++delivered; });
  EXPECT_TRUE(qp->transmit(Bundle{packet(1000)}));
  Bundle second{packet(1000)};
  EXPECT_FALSE(qp->transmit(second));  // ring has only 500 free
  EXPECT_EQ(second.size(), 1u);        // untouched on failure
  bool space = false;
  qp->wait_for_space([&] { space = true; });
  sim_.run();
  EXPECT_TRUE(space);  // the fetch loop consumed and released the ring
  EXPECT_TRUE(qp->transmit(second));
  sim_.run();
  EXPECT_EQ(delivered, 2);
}

TEST_F(QpTest, DeliveryPreservesPayloadBytes) {
  auto qp = make_qp(Verb::kSendRecv);
  std::vector<uint8_t> got;
  qp->set_recv_handler([&](Packet p) { got = *p.bytes; });
  auto bytes = std::make_shared<const std::vector<uint8_t>>(
      std::vector<uint8_t>{1, 2, 3, 4});
  qp->transmit(Bundle{Packet{bytes, 0, 7}});
  sim_.run();
  EXPECT_EQ(got, (std::vector<uint8_t>{1, 2, 3, 4}));
}

TEST_F(QpTest, OneSidedReadLatencyIncludesRoundTrip) {
  auto qp = make_qp(Verb::kRead);
  Time delivered = 0;
  qp->set_recv_handler([&](Packet) { delivered = sim_.now(); });
  qp->transmit(Bundle{packet(100)});
  sim_.run();
  // post + request trip + data trip at minimum.
  EXPECT_GE(delivered, cost_.rdma_post + 2 * spec_.ib_prop_intra_rack);
}

TEST_F(QpTest, CompletionQueuePollDrains) {
  auto qp = make_qp(Verb::kSendRecv);
  qp->set_recv_handler([](Packet) {});
  qp->transmit(Bundle{packet(10)});
  qp->transmit(Bundle{packet(20)});
  sim_.run();
  EXPECT_EQ(qp->send_cq().depth(), 2u);
  auto c1 = qp->send_cq().poll();
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->bytes, 10u);
  EXPECT_EQ(c1->verb, Verb::kSendRecv);
  EXPECT_TRUE(qp->send_cq().poll().has_value());
  EXPECT_FALSE(qp->send_cq().poll().has_value());
}

}  // namespace
}  // namespace whale::rdma

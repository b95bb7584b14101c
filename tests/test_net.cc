// Fabric tests: rack topology, propagation, NIC serialization, byte
// accounting, and the cost model helpers.
#include <gtest/gtest.h>

#include "net/cluster.h"
#include "net/cost_model.h"
#include "net/fabric.h"
#include "sim/simulation.h"

namespace whale::net {
namespace {

TEST(ClusterSpec, RackPartitioning) {
  ClusterSpec spec;
  spec.num_nodes = 30;
  spec.num_racks = 3;
  // 10 nodes per rack, contiguous blocks.
  EXPECT_EQ(spec.rack_of(0), 0);
  EXPECT_EQ(spec.rack_of(9), 0);
  EXPECT_EQ(spec.rack_of(10), 1);
  EXPECT_EQ(spec.rack_of(29), 2);
  EXPECT_TRUE(spec.same_rack(0, 9));
  EXPECT_FALSE(spec.same_rack(9, 10));
}

TEST(ClusterSpec, UnevenRacks) {
  ClusterSpec spec;
  spec.num_nodes = 30;
  spec.num_racks = 4;  // ceil(30/4) = 8 per rack
  EXPECT_EQ(spec.rack_of(0), 0);
  EXPECT_EQ(spec.rack_of(7), 0);
  EXPECT_EQ(spec.rack_of(8), 1);
  EXPECT_EQ(spec.rack_of(29), 3);
}

TEST(CostModel, LinearTimes) {
  CostModel c;
  EXPECT_EQ(c.ser_time(0), c.ser_fixed);
  EXPECT_EQ(c.ser_time(100),
            c.ser_fixed + static_cast<Duration>(100 * c.ser_per_byte_ns));
  EXPECT_GT(c.tcp_send_time(1000), c.tcp_send_time(10));
  EXPECT_EQ(c.wire_bytes(Transport::kTcp, 100),
            100 + c.tcp_wire_overhead_bytes);
  EXPECT_EQ(c.wire_bytes(Transport::kRdma, 100),
            100 + c.rdma_wire_overhead_bytes);
}

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() {
    spec_.num_nodes = 4;
    spec_.num_racks = 2;
    fabric_ = std::make_unique<Fabric>(sim_, spec_);
  }
  sim::Simulation sim_;
  ClusterSpec spec_;
  std::unique_ptr<Fabric> fabric_;
};

TEST_F(FabricTest, DeliversWithPropagationAndWireTime) {
  Time delivered = 0;
  // 1184 payload + 66 overhead = 1250 bytes = 10 us at 1 Gbps, plus
  // intra-rack propagation.
  fabric_->transmit(Transport::kTcp, 0, 1, 1250 - 66,
                    [&] { delivered = sim_.now(); });
  sim_.run();
  EXPECT_EQ(delivered, us(10) + spec_.eth_prop_intra_rack);
}

TEST_F(FabricTest, InterRackCostsMore) {
  Time intra = 0, inter = 0;
  fabric_->transmit(Transport::kRdma, 0, 1, 1000, [&] { intra = sim_.now(); });
  sim_.run();
  Fabric f2(sim_, spec_);
  f2.transmit(Transport::kRdma, 0, 2, 1000, [&] { inter = sim_.now(); });
  sim_.run();
  EXPECT_GT(inter - intra,
            spec_.ib_prop_inter_rack - spec_.ib_prop_intra_rack - 1);
}

TEST_F(FabricTest, RdmaIsFasterOnTheWire) {
  Time tcp = 0, rdma = 0;
  fabric_->transmit(Transport::kTcp, 0, 1, 100000, [&] { tcp = sim_.now(); });
  fabric_->transmit(Transport::kRdma, 0, 1, 100000,
                    [&] { rdma = sim_.now(); });
  sim_.run();
  EXPECT_LT(rdma, tcp);  // 56 Gbps vs 1 Gbps
}

TEST_F(FabricTest, LoopbackSkipsNic) {
  Time delivered = -1;
  fabric_->transmit(Transport::kTcp, 2, 2, 1 << 20,
                    [&] { delivered = sim_.now(); });
  sim_.run();
  EXPECT_EQ(delivered, 0);  // same-tick delivery, no wire time
  EXPECT_EQ(fabric_->total_bytes_sent(Transport::kTcp), 0u);
}

TEST_F(FabricTest, PerNodeByteAccounting) {
  fabric_->transmit(Transport::kTcp, 0, 1, 1000, [] {});
  fabric_->transmit(Transport::kTcp, 0, 2, 2000, [] {});
  fabric_->transmit(Transport::kRdma, 1, 0, 500, [] {});
  sim_.run();
  const auto& c = CostModel{};
  EXPECT_EQ(fabric_->bytes_sent(Transport::kTcp, 0),
            3000 + 2 * c.tcp_wire_overhead_bytes);
  EXPECT_EQ(fabric_->bytes_sent(Transport::kTcp, 1), 0u);
  EXPECT_EQ(fabric_->bytes_sent(Transport::kRdma, 1),
            500 + c.rdma_wire_overhead_bytes);
  EXPECT_EQ(fabric_->messages_sent(Transport::kTcp), 2u);
  EXPECT_EQ(fabric_->messages_sent(Transport::kRdma), 1u);
}

TEST_F(FabricTest, NicEgressSerializes) {
  // Two messages from node 0 share its NIC: the second arrives one wire
  // time later even though both were submitted at t = 0.
  std::vector<Time> arrivals;
  fabric_->transmit(Transport::kTcp, 0, 1, 1250 - 66,
                    [&] { arrivals.push_back(sim_.now()); });
  fabric_->transmit(Transport::kTcp, 0, 1, 1250 - 66,
                    [&] { arrivals.push_back(sim_.now()); });
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], us(10));
}

TEST_F(FabricTest, LinkFaultsStackAndLiftSeparately) {
  // The fault started last applies; lifting it brings back the one below,
  // and lifting a fault below leaves the one on top in force.
  auto sends = [&] {
    return fabric_->transmit(Transport::kTcp, 0, 1, 100, [] {});
  };
  const uint64_t cut = fabric_->degrade_link(0, 1, 0.0, 1.0);
  const uint64_t slow = fabric_->degrade_link(0, 1, 0.5, 2.0);
  EXPECT_TRUE(sends());
  fabric_->restore_link(0, 1, slow);
  EXPECT_FALSE(sends());
  const uint64_t cut2 = fabric_->degrade_link(0, 1, 0.0, 1.0);
  fabric_->restore_link(0, 1, cut);
  EXPECT_FALSE(sends());
  fabric_->restore_link(0, 1, cut2);
  EXPECT_TRUE(sends());
  EXPECT_EQ(fabric_->messages_dropped(), 2u);
  sim_.run();
}

}  // namespace
}  // namespace whale::net

// The cluster fabric: per-node NIC egress resources plus rack-aware
// propagation. Raw byte mover — the TCP CPU costs and the RDMA verbs
// semantics are layered on top (dsps transport / rdma module).
//
// Fault surface: nodes can be marked down (traffic to/from them is
// dropped, `delivered` never fires) and directed links can be degraded
// (bandwidth/latency factors; bandwidth factor 0 partitions the link).
// Both transports share the fault state — a dead node is dead on Ethernet
// and InfiniBand alike.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/inline_function.h"
#include "common/time.h"
#include "net/cluster.h"
#include "net/cost_model.h"
#include "sim/parallel.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace whale::obs {
class Tracer;
}

namespace whale::net {

class Fabric {
 public:
  // With `psim` set (parallel runs), each node's NIC resources are bound
  // to that node's partition and post-delay completions route through the
  // partition channels; serial runs bind everything to `sim`.
  Fabric(sim::Simulation& sim, ClusterSpec spec,
         sim::ParallelSimulation* psim = nullptr);

  const ClusterSpec& spec() const { return spec_; }
  // The simulation of the partition executing the calling thread (the
  // single shared simulation on serial runs). Delivery scheduling and
  // clock reads inside transport callbacks go through here so the same
  // code drives both modes.
  sim::Simulation& simulation() { return psim_ ? psim_->current() : sim_; }
  int num_nodes() const { return spec_.num_nodes; }

  // Moves `payload_bytes` (+ framing overhead) from `src` to `dst` over the
  // given transport. `delivered` fires at the destination once the message
  // has fully arrived. src == dst short-circuits (no NIC, no propagation).
  // `engine_fixed` occupies the egress engine per message in addition to
  // the wire time (RNIC per-work-request processing).
  // Returns false iff the message was dropped at entry (dead endpoint or
  // partitioned link) — `delivered` will never fire in that case. Callers
  // that existed before the observability layer ignore the result; the obs
  // counters use it to attribute losses to the layer that sent the message.
  bool transmit(Transport t, int src, int dst, uint64_t payload_bytes,
                InlineFunction delivered, Duration engine_fixed = 0);

  // Egress byte counters per node/transport (traffic figures 27/28).
  uint64_t bytes_sent(Transport t, int node) const {
    return bytes_sent_[static_cast<size_t>(t)][static_cast<size_t>(node)];
  }
  uint64_t total_bytes_sent(Transport t) const;
  uint64_t messages_sent(Transport t) const {
    uint64_t sum = 0;
    for (uint64_t m : messages_sent_[static_cast<size_t>(t)]) sum += m;
    return sum;
  }

  sim::ThroughputResource& tx(Transport t, int node) {
    return *txs_[static_cast<size_t>(t)][static_cast<size_t>(node)];
  }

  Duration propagation(Transport t, int src, int dst) const;

  // Conservative lookahead for the parallel kernel: the minimum effective
  // propagation delay over every ordered cross-partition node pair on the
  // given transport, with degraded-link latency factors applied (a factor
  // below 1 shrinks the lookahead) and partitioned links (bandwidth
  // factor 0) skipped — they deliver nothing, so they bound nothing.
  // Floored at 1 ns, matching the floor transmit() applies to degraded
  // propagation, so a delivered message can never undercut the window.
  // Returns kNoCrossLinks when no pair crosses partitions.
  static constexpr Duration kNoCrossLinks = INT64_MAX;
  Duration min_cross_propagation(
      Transport t, const std::vector<int>& node_partition) const;

  // --- fault injection ---------------------------------------------------
  // A down node drops everything addressed to or originating from it.
  void set_node_up(int node, bool up) {
    node_up_[static_cast<size_t>(node)] = up ? 1 : 0;
  }
  bool node_up(int node) const {
    return node_up_[static_cast<size_t>(node)] != 0;
  }
  // Degrades the directed link src -> dst: achievable bandwidth is scaled
  // by bandwidth_factor (0 = partition: messages dropped) and propagation
  // by latency_factor. Faults on one link stack: the one started last
  // applies. Returns the fault's id; restore_link lifts only that fault,
  // and the link is healthy again once none is left.
  uint64_t degrade_link(int src, int dst, double bandwidth_factor,
                        double latency_factor);
  void restore_link(int src, int dst, uint64_t fault);

  uint64_t messages_dropped() const {
    uint64_t sum = 0;
    for (uint64_t m : messages_dropped_) sum += m;
    return sum;
  }
  uint64_t bytes_dropped() const {
    uint64_t sum = 0;
    for (uint64_t b : bytes_dropped_) sum += b;
    return sum;
  }

  // --- observability -----------------------------------------------------
  // Per-directed-link payload accounting (sent at transmit entry, including
  // messages dropped there; delivered when the destination callback fires).
  // Off by default: when disabled, transmit() takes the exact pre-existing
  // path — no wrapper callback, no map lookups, no extra allocations.
  struct LinkStats {
    uint64_t msgs_sent = 0;
    uint64_t msgs_delivered = 0;
    uint64_t msgs_dropped = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_delivered = 0;
    uint64_t bytes_dropped = 0;
  };
  void enable_link_stats() { link_stats_enabled_ = true; }
  bool link_stats_enabled() const { return link_stats_enabled_; }
  // nullptr when the link has carried no traffic (or stats are disabled).
  const LinkStats* link_stats(int src, int dst) const;
  template <typename Fn>
  void for_each_link(Fn&& fn) const {
    for (const auto& [key, stats] : link_stats_) {
      fn(static_cast<int>(key >> 32),
         static_cast<int>(key & 0xFFFFFFFFu), stats);
    }
  }

  // The tracer is owned by the engine; the fabric holds the pointer so the
  // rdma layer (which sees the fabric but not the engine) can emit
  // transfer spans. May be null.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  struct LinkState {
    double bandwidth_factor = 1.0;
    double latency_factor = 1.0;
    uint64_t fault = 0;  // the degrade_link id that set it
  };
  static uint64_t link_key(int src, int dst) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
           static_cast<uint32_t>(dst);
  }

  sim::Simulation& sim_;
  sim::ParallelSimulation* psim_ = nullptr;
  ClusterSpec spec_;
  CostModel cost_;
  // [transport][node]
  std::vector<std::unique_ptr<sim::ThroughputResource>> txs_[2];
  std::vector<uint64_t> bytes_sent_[2];
  // Counters that transmit() bumps are sharded per source node: a
  // parallel run's transmits execute on the source's partition, so each
  // slot has a single writer. Accessors sum (reports read them post-run).
  std::vector<uint64_t> messages_sent_[2];

  std::vector<uint8_t> node_up_;
  // A degraded link's active faults, oldest first; back() applies.
  std::unordered_map<uint64_t, std::vector<LinkState>> degraded_;
  uint64_t next_fault_ = 0;
  std::vector<uint64_t> messages_dropped_;
  std::vector<uint64_t> bytes_dropped_;

  bool link_stats_enabled_ = false;
  // unordered_map gives stable element addresses, so the delivery wrapper
  // can capture a raw LinkStats* across rehashes.
  std::unordered_map<uint64_t, LinkStats> link_stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace whale::net

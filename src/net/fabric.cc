#include "net/fabric.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace whale::net {

Fabric::Fabric(sim::Simulation& sim, ClusterSpec spec,
               sim::ParallelSimulation* psim)
    : sim_(sim), psim_(psim), spec_(spec) {
  node_up_.assign(static_cast<size_t>(spec_.num_nodes), 1);
  messages_dropped_.assign(static_cast<size_t>(spec_.num_nodes), 0);
  bytes_dropped_.assign(static_cast<size_t>(spec_.num_nodes), 0);
  for (int t = 0; t < 2; ++t) {
    const bool tcp = (t == static_cast<int>(Transport::kTcp));
    const double bw = tcp ? spec_.eth_bandwidth_bps : spec_.ib_bandwidth_bps;
    txs_[t].reserve(static_cast<size_t>(spec_.num_nodes));
    bytes_sent_[t].assign(static_cast<size_t>(spec_.num_nodes), 0);
    messages_sent_[t].assign(static_cast<size_t>(spec_.num_nodes), 0);
    for (int n = 0; n < spec_.num_nodes; ++n) {
      // Each node's NIC lives in that node's partition: its completion
      // events are intra-partition, only the post-delay (propagation)
      // hop crosses, and that goes through the router.
      auto& nic_sim = psim_ ? psim_->node_sim(n) : sim_;
      txs_[t].push_back(std::make_unique<sim::ThroughputResource>(
          nic_sim,
          std::string(tcp ? "eth" : "ib") + "_tx" + std::to_string(n), bw));
      if (psim_) txs_[t].back()->set_router(psim_);
    }
  }
}

Duration Fabric::propagation(Transport t, int src, int dst) const {
  const bool intra = spec_.same_rack(src, dst);
  if (t == Transport::kTcp) {
    return intra ? spec_.eth_prop_intra_rack : spec_.eth_prop_inter_rack;
  }
  return intra ? spec_.ib_prop_intra_rack : spec_.ib_prop_inter_rack;
}

uint64_t Fabric::degrade_link(int src, int dst, double bandwidth_factor,
                              double latency_factor) {
  assert(bandwidth_factor >= 0.0 && latency_factor > 0.0);
  const uint64_t fault = next_fault_++;
  degraded_[link_key(src, dst)].push_back(
      LinkState{bandwidth_factor, latency_factor, fault});
  return fault;
}

Duration Fabric::min_cross_propagation(
    Transport t, const std::vector<int>& node_partition) const {
  Duration best = kNoCrossLinks;
  for (int src = 0; src < spec_.num_nodes; ++src) {
    for (int dst = 0; dst < spec_.num_nodes; ++dst) {
      if (src == dst) continue;
      if (node_partition[static_cast<size_t>(src)] ==
          node_partition[static_cast<size_t>(dst)]) {
        continue;
      }
      Duration p = propagation(t, src, dst);
      auto it = degraded_.find(link_key(src, dst));
      if (it != degraded_.end()) {
        const LinkState& link = it->second.back();
        if (link.bandwidth_factor <= 0.0) continue;  // partitioned
        p = static_cast<Duration>(static_cast<double>(p) *
                                  link.latency_factor);
      }
      best = std::min(best, std::max<Duration>(1, p));
    }
  }
  return best;
}

void Fabric::restore_link(int src, int dst, uint64_t fault) {
  auto it = degraded_.find(link_key(src, dst));
  if (it == degraded_.end()) return;
  std::erase_if(it->second,
                [fault](const LinkState& l) { return l.fault == fault; });
  if (it->second.empty()) degraded_.erase(it);
}

bool Fabric::transmit(Transport t, int src, int dst, uint64_t payload_bytes,
                      InlineFunction delivered, Duration engine_fixed) {
  assert(src >= 0 && src < spec_.num_nodes);
  assert(dst >= 0 && dst < spec_.num_nodes);
  LinkStats* ls = nullptr;
  if (link_stats_enabled_) {
    ls = &link_stats_[link_key(src, dst)];
    ++ls->msgs_sent;
    ls->bytes_sent += payload_bytes;
  }
  if (!node_up(src) || !node_up(dst)) {
    // A dead endpoint: the message vanishes (the sender's NIC may not even
    // exist anymore). Recovery is the upper layers' job — the acker times
    // the lost tuple out and the spout replays it.
    ++messages_dropped_[static_cast<size_t>(src)];
    bytes_dropped_[static_cast<size_t>(src)] += payload_bytes;
    if (ls) {
      ++ls->msgs_dropped;
      ls->bytes_dropped += payload_bytes;
    }
    return false;
  }
  if (ls) {
    // Wrap the delivery continuation to close the sent==delivered+dropped
    // books when it fires. The capture exceeds InlineFunction's inline
    // buffer, so this costs one heap allocation per message — acceptable,
    // because the wrapper only exists while link stats are enabled.
    delivered = [ls, payload_bytes, inner = std::move(delivered)]() mutable {
      ++ls->msgs_delivered;
      ls->bytes_delivered += payload_bytes;
      if (inner) inner();
    };
  }
  if (src == dst) {
    // Loopback: no NIC involvement; deliver on the next event tick.
    simulation().schedule_after(0, std::move(delivered));
    return true;
  }
  const LinkState* link = nullptr;
  auto lit = degraded_.find(link_key(src, dst));
  if (lit != degraded_.end()) {
    link = &lit->second.back();
    if (link->bandwidth_factor <= 0.0) {
      ++messages_dropped_[static_cast<size_t>(src)];  // partitioned link
      bytes_dropped_[static_cast<size_t>(src)] += payload_bytes;
      if (ls) {
        ++ls->msgs_dropped;
        ls->bytes_dropped += payload_bytes;
      }
      return false;
    }
  }
  const uint64_t wire = cost_.wire_bytes(t, payload_bytes);
  bytes_sent_[static_cast<size_t>(t)][static_cast<size_t>(src)] += wire;
  ++messages_sent_[static_cast<size_t>(t)][static_cast<size_t>(src)];
  Duration prop = propagation(t, src, dst);
  auto& nic = tx(t, src);
  Duration fixed = engine_fixed;
  if (link) {
    // A slower link shows up as extra serialization time per message (the
    // NIC engine is held for the additional wire time), and propagation
    // stretches by the latency factor. Floored at 1 ns so a sped-up link
    // (latency_factor < 1) still delivers strictly in the future — the
    // same floor min_cross_propagation() applies to the lookahead.
    const Duration base = nic.transfer_time(wire);
    fixed += static_cast<Duration>(
        static_cast<double>(base) * (1.0 / link->bandwidth_factor - 1.0));
    prop = std::max<Duration>(
        1, static_cast<Duration>(static_cast<double>(prop) *
                                 link->latency_factor));
  }
  // The NIC schedules `delivered` prop after serialization completes; no
  // trampoline callback, so small delivery continuations stay inline in
  // the event slab. `dst` rides along so a parallel run's router can land
  // the delivery in the destination node's partition.
  nic.transfer(wire, std::move(delivered), fixed, prop, dst);
  return true;
}

const Fabric::LinkStats* Fabric::link_stats(int src, int dst) const {
  auto it = link_stats_.find(link_key(src, dst));
  return it == link_stats_.end() ? nullptr : &it->second;
}

uint64_t Fabric::total_bytes_sent(Transport t) const {
  uint64_t sum = 0;
  for (uint64_t b : bytes_sent_[static_cast<size_t>(t)]) sum += b;
  return sum;
}

}  // namespace whale::net

// Memory-region registration + one-sided op scheduling for the state
// plane (DESIGN.md §12).
//
// The data plane's QueuePair (verbs.h) models per-channel stream traffic;
// checkpoints want something different: a handful of registered regions
// on a dedicated state-host node, written by one-sided RDMA WRITEs with
// ZERO host CPU in the snapshot path and read back by one-sided READs at
// recovery. This file provides that plumbing:
//
//  - MemoryRegionTable: registration bookkeeping on the host. Regions
//    are pinned at bind time (off the data path); outgrowing a region
//    re-registers it at double capacity, charged as extra latency on the
//    WRITE that needed the growth.
//  - OneSidedPlane: schedules WRITE/READ work requests from any worker
//    node against the host. A WRITE pays the initiator's post cost and
//    the wire; completion (initiator-side CQ semantics) fires when the
//    payload lands — the host CPU is never scheduled. A READ mirrors the
//    verbs.cc fetch shape: post cost, a small request descriptor to the
//    host RNIC, then the data DMAs back.
#pragma once

#include <cstdint>
#include <functional>

#include "common/time.h"
#include "net/cost_model.h"
#include "net/fabric.h"
#include "sim/cpu.h"

namespace whale::rdma {

struct MemoryRegion {
  uint32_t rkey = 0;
  uint64_t capacity = 0;
  uint64_t high_water = 0;  // largest write the region has absorbed
};

// Registration bookkeeping for one host node's pinned regions.
class MemoryRegionTable {
 public:
  // Registers a region of at least `capacity` bytes, returns its rkey.
  uint32_t register_region(uint64_t capacity);
  // Ensures the region can hold `bytes`, doubling (re-registering) as
  // needed. Returns true if a re-registration happened.
  bool ensure_capacity(uint32_t rkey, uint64_t bytes);
  const MemoryRegion& region(uint32_t rkey) const {
    return regions_[rkey - 1];
  }
  void note_write(uint32_t rkey, uint64_t bytes);

  size_t count() const { return regions_.size(); }
  uint64_t registered_bytes() const { return registered_bytes_; }
  uint64_t reregistrations() const { return reregistrations_; }

 private:
  std::vector<MemoryRegion> regions_;  // rkey - 1 indexed
  uint64_t registered_bytes_ = 0;
  uint64_t reregistrations_ = 0;
};

// One-sided initiator against a fixed host node. Stateless per call: the
// initiating node/CPU are passed per operation so a single plane serves
// every worker (and the recovering node) of the state plane.
class OneSidedPlane {
 public:
  struct Stats {
    uint64_t writes_posted = 0;
    uint64_t write_bytes = 0;
    uint64_t reads_posted = 0;
    uint64_t read_bytes = 0;
    uint64_t drops = 0;  // ops eaten by the fabric (dead initiator, ...)
  };

  OneSidedPlane(net::Fabric& fabric, const net::CostModel& cost,
                int host_node)
      : fabric_(fabric), cost_(cost), host_node_(host_node) {}

  // One-sided WRITE of `bytes` into the host region. The initiator's CPU
  // pays the post cost (plus `extra_post_latency`, e.g. an MR growth
  // re-registration); the host CPU pays nothing. `on_complete` fires at
  // initiator CQ time (payload landed); `on_drop` (optional) fires if the
  // fabric refuses the message.
  void write(sim::CpuServer* initiator, int initiator_node, uint64_t bytes,
             Duration extra_post_latency, std::function<void()> on_complete,
             std::function<void()> on_drop = nullptr);

  // One-sided READ of `bytes` back from the host region: post cost, a
  // request descriptor to the host RNIC, then the data DMAs back with no
  // host CPU involvement. `on_data` fires when the payload has landed at
  // the initiator.
  void read(sim::CpuServer* initiator, int initiator_node, uint64_t bytes,
            std::function<void()> on_data,
            std::function<void()> on_drop = nullptr);

  const Stats& stats() const { return stats_; }

 private:
  net::Fabric& fabric_;
  const net::CostModel& cost_;
  int host_node_;
  Stats stats_;
};

}  // namespace whale::rdma

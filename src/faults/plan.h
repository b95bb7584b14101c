// Fault plans: scripted adversity for the simulated cluster.
//
// A FaultPlan is plain data — a list of timed fault events (node crashes
// with optional restart, link degradation/partition, relay-worker stalls).
// core::Engine checks the plan at construction and schedules it as
// sim::Simulation callbacks when the run starts, so a run with a given
// (config, plan) pair is exactly as deterministic as a run without faults:
// two runs with the same plan produce identical event sequences and
// byte-identical reports.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/time.h"

namespace whale::faults {

// A node (= worker process) dies at `at`, losing every queued and in-flight
// message addressed to it. With restart_after > 0 the node comes back empty
// and rejoins its multicast groups; 0 means it stays dead.
struct NodeCrash {
  int node = 0;
  Time at = 0;
  Duration restart_after = 0;  // 0 = never restarts
};

// A directed link misbehaves between `at` and `at + duration`:
// bandwidth_factor scales the achievable rate (0 = full partition, every
// message on the link is dropped), latency_factor scales propagation.
// duration == 0 makes the fault permanent.
struct LinkFault {
  int src = 0;
  int dst = 0;
  Time at = 0;
  Duration duration = 0;
  double bandwidth_factor = 1.0;
  double latency_factor = 1.0;
};

// A relay worker's send loop freezes for `duration` (GC pause, scheduler
// stall): its transfer queue keeps filling and backpressure propagates
// upstream, but nothing is lost.
struct RelayStall {
  int node = 0;
  Time at = 0;
  Duration duration = 0;
};

struct FaultPlan {
  std::vector<NodeCrash> crashes;
  std::vector<LinkFault> links;
  std::vector<RelayStall> stalls;

  bool empty() const {
    return crashes.empty() && links.empty() && stalls.empty();
  }

  // --- builder ----------------------------------------------------------
  FaultPlan& crash(int node, Time at, Duration restart_after = 0) {
    crashes.push_back(NodeCrash{node, at, restart_after});
    return *this;
  }
  FaultPlan& degrade(int src, int dst, Time at, Duration duration,
                     double bandwidth_factor, double latency_factor = 1.0) {
    links.push_back(
        LinkFault{src, dst, at, duration, bandwidth_factor, latency_factor});
    return *this;
  }
  FaultPlan& partition(int src, int dst, Time at, Duration duration) {
    return degrade(src, dst, at, duration, 0.0, 1.0);
  }
  FaultPlan& stall(int node, Time at, Duration duration) {
    stalls.push_back(RelayStall{node, at, duration});
    return *this;
  }

  // Deterministic chaos: `num_faults` events drawn from a seeded RNG,
  // spread uniformly over [horizon/4, horizon]. Node 0 is spared so the
  // primary source survives (crash-the-source runs should script that
  // deliberately). Even indices crash-and-restart nodes; the rest
  // alternate between link degradation and relay stalls.
  static FaultPlan random(uint64_t seed, int num_nodes, Time horizon,
                          int num_faults) {
    FaultPlan p;
    Rng rng(seed);
    for (int i = 0; i < num_faults; ++i) {
      const Time at =
          horizon / 4 +
          static_cast<Time>(rng.next_below(
              static_cast<uint64_t>(horizon - horizon / 4)));
      const int node =
          1 + static_cast<int>(rng.next_below(
                  static_cast<uint64_t>(num_nodes > 1 ? num_nodes - 1 : 1)));
      if (i % 2 == 0) {
        p.crash(node, at, /*restart_after=*/horizon / 8);
      } else if (i % 4 == 1) {
        const int peer = static_cast<int>(
            rng.next_below(static_cast<uint64_t>(num_nodes)));
        p.degrade(node, peer == node ? 0 : peer, at, horizon / 8,
                  rng.uniform(0.05, 0.5), rng.uniform(1.0, 4.0));
      } else {
        p.stall(node, at, horizon / 16);
      }
    }
    return p;
  }
};

}  // namespace whale::faults

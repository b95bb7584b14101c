// Engine configuration: everything an experiment can vary.
#pragma once

#include <cstdint>

#include "common/time.h"
#include "elastic/elastic.h"
#include "faults/plan.h"
#include "multicast/controller.h"
#include "net/cluster.h"
#include "net/cost_model.h"
#include "obs/obs.h"
#include "rdma/verbs.h"
#include "state/state.h"
#include "core/variant.h"

namespace whale::core {

// Parallel conservative DES kernel (src/sim/parallel.h). threads >= 2
// opts in: the engine partitions the event heap per simulated node and
// runs partitions on a thread pool, bit-identical to serial (DESIGN.md
// §13). 0/1 keeps today's single-threaded kernel with no new locks or
// atomics on the hot path. Configurations the partitioner cannot prove
// safe (acking, faults, checkpointing, observability, the optimized-RDMA
// transport) fall back to serial; RunReport.parallel records the decision
// and names the first disqualifying knob in fallback_reason.
struct SimConfig {
  int threads = 0;
};

struct EngineConfig {
  net::ClusterSpec cluster;
  net::CostModel cost;
  SystemVariant variant = SystemVariant::Whale();

  // Parallel kernel knob; off by default.
  SimConfig sim;

  // Model physical-core contention: all threads of a node (executors +
  // worker send/recv threads) share cores_per_node cores FCFS. Off by
  // default (the paper's setup pins one instance per core).
  bool model_core_contention = false;

  // Transfer queue capacity Q (per worker process).
  size_t transfer_queue_capacity = 2048;
  // Executor incoming queue capacity (drops counted on overflow).
  size_t executor_queue_capacity = 4096;

  // Whale: per-destination scheduling cost at the source executor when
  // replicating a multicast tuple onto d0 channels (the t_d of Sec. 4):
  // queue ops + channel buffer append per cascading destination.
  Duration mcast_schedule_per_child = ns(3500);

  // Stream slicing (Sec. 4): flush when the per-channel buffer reaches MMS
  // bytes or the oldest buffered tuple has waited WTL.
  uint64_t mms_bytes = 256 * 1024;
  Duration wtl = ms(1);

  // RDMA channel parameters.
  rdma::QpConfig qp;

  // Self-adjusting controller (non-blocking multicast only).
  multicast::ControllerConfig controller;
  // Initial maximum out-degree d*; 0 = start at the binomial out-degree
  // (the tree the controller converges to under light load anyway).
  int initial_dstar = 0;
  // Disable to pin d* at initial_dstar (ablations, Figs. 21/22).
  bool self_adjust = true;
  // Establishing a replacement RDMA connection during dynamic switching
  // (QP create + handshake + registration); dominates T_switch.
  Duration switch_connection_setup = ms(60);

  // Statistics monitoring (Sec. 4): alpha of the lambda monitor's
  // weighted average.
  double lambda_alpha = 0.8;

  // Storm-style tuple-tree acking ("ideal acker": the XOR ledger is exact
  // but acker-bolt message traffic is not charged). Gives the paper's
  // "fully processed" completion signal and at-least-once failure counts.
  // With checkpointing off the spout replays a failed root (at-least-once
  // across crashes), at most 3 times; with it on, epoch-log recovery
  // rewinds the spouts instead.
  bool enable_acking = false;
  Duration ack_timeout = sec(30);

  // Fault injection: scripted node crashes / link degradations / relay
  // stalls. The engine refuses a malformed plan at construction and
  // schedules the plan when run() starts. Empty plan = no faults.
  faults::FaultPlan faults;

  uint64_t seed = 42;

  // Metrics: bin width for over-time series (Figs. 23/24) and the sampling
  // stride for per-tuple multicast/comm-time tracking (1 = every tuple).
  Duration timeseries_bin = ms(20);
  uint64_t tuple_sample_stride = 1;

  // Observability layer (src/obs): metrics snapshots + lifecycle tracing.
  // Default-off; when off the engine schedules no extra events and the
  // workload fingerprints are bit-identical to an uninstrumented build.
  obs::ObsConfig obs;

  // Checkpointing/state layer (src/state): aligned epoch barriers,
  // asynchronous snapshots, exactly-once recovery. Same zero-overhead
  // contract as obs: default-off, fingerprints identical when off.
  state::StateConfig state;

  // Elastic rescaling layer (src/elastic): gauge-driven grow/shrink of
  // operator parallelism with live keyed-state migration and rack-aware
  // placement. Requires state.enabled with aligned barriers. Same
  // zero-overhead contract: default-off, fingerprints identical when off.
  elastic::ElasticConfig elastic;
};

}  // namespace whale::core

// RunReport: everything a single engine run measures.
//
// One report per (variant, workload, parameters) point; the bench binaries
// print the fields the corresponding paper figure plots.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/time.h"
#include "sim/cpu.h"

namespace whale::core {

struct RunReport {
  std::string variant;
  Duration warmup = 0;
  Duration window = 0;

  // --- volume ---------------------------------------------------------
  uint64_t roots_emitted = 0;     // spout tuples during the window
  uint64_t input_drops = 0;       // arrivals rejected (spout queue full)
  uint64_t queue_rejects = 0;     // executor-queue overflow drops
  uint64_t mcast_roots = 0;       // all-grouped roots fully delivered
  uint64_t sink_completions = 0;  // tuples processed at sink operators

  double offered_tps = 0.0;
  double mcast_throughput_tps = 0.0;
  double sink_throughput_tps = 0.0;

  // --- latency ----------------------------------------------------------
  LatencyHistogram processing_latency;  // root emit -> sink completion
  LatencyHistogram multicast_latency;   // root emit -> last dst instance

  // --- source-side communication (Figs. 25/26) ---------------------------
  // Per all-grouped root tuple at the source worker: serialization start ->
  // last outbound message delivered, and the serialization share of it.
  LatencyHistogram comm_time;
  double ser_time_avg_ns = 0.0;
  double ser_ratio = 0.0;  // mean serialization fraction of comm time

  // --- CPU (Figs. 2c/2d) --------------------------------------------------
  double src_utilization = 0.0;             // source executor busy fraction
  double downstream_utilization_avg = 0.0;  // mean over destination tasks
  // Source executor busy seconds by category during the window.
  std::array<double, static_cast<size_t>(sim::CpuCategory::kCount)>
      src_cpu_seconds{};

  // --- traffic (Figs. 27/28) ---------------------------------------------
  uint64_t bytes_tcp = 0;        // cluster-wide wire bytes during window
  uint64_t bytes_rdma = 0;
  uint64_t src_node_bytes = 0;   // egress of the source's node

  // --- transfer queue / model (Fig. 3) ------------------------------------
  double transfer_queue_avg = 0.0;  // source worker, time-sampled
  size_t transfer_queue_max = 0;
  double load_factor = 0.0;  // source executor utilization rho

  // --- acking (at-least-once tracking, optional) ---------------------------
  uint64_t acked_roots = 0;   // roots whose whole tuple tree was processed
  uint64_t failed_roots = 0;  // dropped or timed out
  LatencyHistogram ack_latency;  // root emit -> tree fully processed

  // --- self-adjusting (Figs. 23/24) ---------------------------------------
  uint64_t scale_ups = 0;
  uint64_t scale_downs = 0;
  uint64_t switches_completed = 0;
  Duration switch_time_total = 0;
  Duration switch_time_max = 0;
  int final_dstar = 0;

  // --- over-time series (Figs. 23/24) --------------------------------------
  TimeSeries tput_series{ms(20)};     // mcast completions per bin
  TimeSeries lat_sum_series{ms(20)};  // sum of processing latency (ns)
  TimeSeries lat_cnt_series{ms(20)};

  // --- faults & recovery ----------------------------------------------------
  uint64_t node_crashes = 0;
  uint64_t node_restarts = 0;
  uint64_t link_faults = 0;
  uint64_t relay_stalls = 0;
  uint64_t fabric_messages_dropped = 0;  // transmissions eaten by dead
  uint64_t fabric_bytes_dropped = 0;     // nodes / partitioned links
  uint64_t tuples_lost = 0;       // dropped at dead workers / reset QPs
  uint64_t replayed_roots = 0;    // spout re-emissions after ack failure
  uint64_t replay_completions = 0;  // replayed roots that finished acking
  uint64_t replays_exhausted = 0;   // roots written off after 3 replays
  uint64_t tree_repairs = 0;        // multicast tree repair rounds
  uint64_t repair_moves = 0;        // endpoints re-parented across repairs
  Duration repair_time_total = 0;   // crash detection -> repair ACKed
  Duration repair_time_max = 0;
  Duration downtime_total = 0;      // sum of per-node down intervals

  // --- checkpointing & exactly-once (src/state) ----------------------------
  uint64_t epochs_completed = 0;   // committed checkpoint epochs
  uint64_t epochs_aborted = 0;     // wedged/aborted epochs
  uint64_t barriers_injected = 0;  // offered to spout queues, bounces too
  uint64_t checkpoint_bytes = 0;   // snapshot bytes written to the store
  uint64_t committed_completions = 0;  // sink roots committed exactly once
  uint64_t duplicates_filtered = 0;    // sink-side exactly-once rejections
  uint64_t checkpoint_recoveries = 0;  // restore-from-checkpoint episodes
  uint64_t checkpoint_replays = 0;     // tuples re-injected from epoch logs
  Duration align_stall_total = 0;      // summed barrier-alignment stall
  Duration epoch_duration_avg = 0;     // inject -> commit

  // --- remote state / incremental snapshots / unaligned barriers (§12) -----
  uint64_t snapshot_full_bytes = 0;   // full-image bytes the epochs spanned
  uint64_t state_dirty_cells = 0;     // cells shipped across all deltas
  uint64_t state_clean_cells = 0;     // cells skipped as unchanged
  uint64_t remote_writes = 0;         // one-sided snapshot WRITEs posted
  uint64_t remote_write_bytes = 0;
  uint64_t remote_reads = 0;          // one-sided recovery READs posted
  uint64_t remote_read_bytes = 0;
  uint64_t mr_regions = 0;            // registered memory regions
  uint64_t mr_region_bytes = 0;       // pinned capacity on the state host
  uint64_t mr_region_grows = 0;       // re-registrations after image growth
  uint64_t channel_tuples_captured = 0;  // in-flight tuples checkpointed
  uint64_t channel_bytes = 0;            // their byte volume
  uint64_t channel_replays = 0;          // re-injected during recovery

  // --- parallel kernel decision (DESIGN.md §13) ----------------------------
  // What Engine::setup_parallel decided and why. Structural metadata, not a
  // counter: excluded from fingerprint() (a serial and a parallel run of the
  // same config must fingerprint identically, and this block differs by
  // construction). fallback_reason names the FIRST disqualifying knob in
  // the eligibility order, so tests can pin the matrix knob by knob.
  struct ParallelDecision {
    bool engaged = false;     // the partitioned kernel actually runs
    int num_partitions = 0;   // one per node once engaged; 0 otherwise
    int threads = 0;          // executing threads (<= num_partitions)
    // "" when engaged; otherwise one of: "not_requested", "acking",
    // "faults", "elastic", "state", "obs", "optimized_rdma",
    // "nonblocking_mcast", "load_aware_strategy", "single_partition".
    std::string fallback_reason;
  };
  ParallelDecision parallel;

  // --- per-stream routing (DESIGN.md §11) ----------------------------------
  // One row per stream: which PartitioningStrategy routed it and how the
  // window's deliveries spread over the destination instances. Lets bench
  // JSON self-describe the active strategy and quantify load imbalance
  // (max/avg == 1.0 is perfectly balanced). Excluded from fingerprint().
  struct StreamRouting {
    int stream = 0;
    std::string strategy;      // active strategy name ("shuffle", "pkg", ...)
    uint64_t tuples = 0;       // deliveries processed downstream in-window
    uint64_t max_instance = 0; // busiest destination instance's share
    double avg_instance = 0.0;
    double imbalance = 0.0;    // max/avg; 0 when no traffic
  };
  std::vector<StreamRouting> stream_routing;

  // --- elastic rescaling (DESIGN.md §14) -----------------------------------
  // Outcome of the gauge-driven rescale subsystem. Excluded from
  // fingerprint() wholesale, like ParallelDecision/StreamRouting: the
  // mcast-tree scale_ups/scale_downs above are already fingerprinted, and
  // an elastic-off run must stay bit-identical to the committed baseline.
  struct Elastic {
    bool enabled = false;
    uint64_t polls = 0;              // controller samples taken
    uint64_t scale_ups = 0;          // operator grow episodes executed
    uint64_t scale_downs = 0;        // operator shrink episodes executed
    uint64_t rescales_canceled = 0;  // plans whose rescale epoch aborted
    uint64_t instances_spawned = 0;
    uint64_t instances_retired = 0;
    uint64_t keyed_entries_moved = 0;  // keyed-state entries redistributed
    uint64_t state_bytes_moved = 0;    // their payload bytes
    uint64_t stale_drops = 0;  // deliveries fenced at retired instances
    Duration migration_stall_total = 0;  // rescale-epoch inject -> cutover
    Duration migration_stall_max = 0;
    // One row per executed rescale, in execution order.
    struct Episode {
      int op = -1;
      int from = 0;            // parallelism before
      int to = 0;              // parallelism after
      Time at = 0;             // cutover (commit) time
      Duration stall = 0;      // rescale-epoch inject -> cutover
      double backlog = 0.0;    // smoothed signal that triggered the plan
    };
    std::vector<Episode> episodes;
  };
  Elastic elastic;

  // --- meta ----------------------------------------------------------------
  uint64_t sim_events = 0;

  double mcast_latency_ms_avg() const {
    return multicast_latency.mean_ns() / 1e6;
  }
  double processing_latency_ms_avg() const {
    return processing_latency.mean_ns() / 1e6;
  }
  double switch_time_avg_ms() const {
    return switches_completed
               ? to_millis(switch_time_total) /
                     static_cast<double>(switches_completed)
               : 0.0;
  }
  double repair_time_avg_ms() const {
    return tree_repairs ? to_millis(repair_time_total) /
                              static_cast<double>(tree_repairs)
                        : 0.0;
  }

  // Deterministic digest of every counter that could diverge between two
  // runs. Two runs with the same config + fault seed must produce equal
  // fingerprints (reproducibility acceptance test).
  std::string fingerprint() const {
    std::string s;
    auto u = [&s](const char* k, uint64_t v) {
      s += k;
      s += '=';
      s += std::to_string(v);
      s += ';';
    };
    u("roots", roots_emitted);
    u("in_drops", input_drops);
    u("q_rejects", queue_rejects);
    u("mcast", mcast_roots);
    u("sink", sink_completions);
    u("acked", acked_roots);
    u("failed", failed_roots);
    u("crashes", node_crashes);
    u("restarts", node_restarts);
    u("link_faults", link_faults);
    u("stalls", relay_stalls);
    u("fab_drop_msgs", fabric_messages_dropped);
    u("fab_drop_bytes", fabric_bytes_dropped);
    u("lost", tuples_lost);
    u("replayed", replayed_roots);
    u("replay_done", replay_completions);
    u("replay_exh", replays_exhausted);
    u("repairs", tree_repairs);
    u("repair_moves", repair_moves);
    u("repair_ns", static_cast<uint64_t>(repair_time_total));
    u("downtime_ns", static_cast<uint64_t>(downtime_total));
    u("scale_ups", scale_ups);
    u("scale_downs", scale_downs);
    u("switches", switches_completed);
    u("dstar", static_cast<uint64_t>(final_dstar));
    u("bytes_tcp", bytes_tcp);
    u("bytes_rdma", bytes_rdma);
    u("proc_cnt", processing_latency.count());
    u("proc_p99", static_cast<uint64_t>(processing_latency.p99()));
    u("mc_cnt", multicast_latency.count());
    u("mc_p99", static_cast<uint64_t>(multicast_latency.p99()));
    u("ack_cnt", ack_latency.count());
    u("events", sim_events);
    // Checkpointing fields appear only when the run actually checkpointed:
    // with the state layer off nothing below can be nonzero and the string
    // stays bit-identical to the pre-state baseline.
    if (epochs_completed || epochs_aborted || barriers_injected ||
        checkpoint_recoveries || checkpoint_replays) {
      u("epochs", epochs_completed);
      u("epoch_aborts", epochs_aborted);
      u("barriers", barriers_injected);
      u("ckpt_bytes", checkpoint_bytes);
      u("committed", committed_completions);
      u("dup_filtered", duplicates_filtered);
      u("ckpt_recoveries", checkpoint_recoveries);
      u("ckpt_replays", checkpoint_replays);
      u("align_stall_ns", static_cast<uint64_t>(align_stall_total));
    }
    // Remote-backend / unaligned-barrier fields: same contract, one level
    // further in. Aligned local-store runs (and of course state-off runs)
    // keep every one of these at zero, so their fingerprints are
    // bit-identical to the pre-backend baseline.
    if (remote_writes || remote_reads || mr_regions ||
        channel_tuples_captured || channel_replays) {
      u("snap_full_bytes", snapshot_full_bytes);
      u("dirty_cells", state_dirty_cells);
      u("clean_cells", state_clean_cells);
      u("rwrites", remote_writes);
      u("rwrite_bytes", remote_write_bytes);
      u("rreads", remote_reads);
      u("rread_bytes", remote_read_bytes);
      u("mr_regions", mr_regions);
      u("mr_bytes", mr_region_bytes);
      u("mr_grows", mr_region_grows);
      u("chan_captured", channel_tuples_captured);
      u("chan_bytes", channel_bytes);
      u("chan_replays", channel_replays);
    }
    return s;
  }
};

}  // namespace whale::core

// The Whale engine: executes a dsps::Topology on the simulated cluster
// under a SystemVariant, producing a RunReport.
//
// Runtime architecture (mirrors Storm's): one worker *process* per node;
// each worker hosts the *executors* (one CPU server each) of the tasks
// placed on it; executors feed the worker's transfer queue, which the
// worker's send thread drains into the transport (core/transport.h: kernel
// TCP, naive RDMA SEND/RECV, or Whale's sliced one-sided READ channels).
// All-grouped streams can be disseminated through a multicast structure
// (sequential / binomial / self-adjusting non-blocking tree) whose relays
// forward raw bytes without re-serialization.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/acking.h"
#include "core/checkpoints.h"
#include "core/config.h"
#include "core/elastic.h"
#include "core/mcast_groups.h"
#include "core/message.h"
#include "core/report.h"
#include "core/transport.h"
#include "dsps/partitioning.h"
#include "dsps/topology.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/cpu.h"
#include "sim/parallel.h"
#include "sim/queue.h"
#include "sim/simulation.h"
#include "state/state_store.h"

namespace whale::core {

// The engine drives the data path; the checkpoint, acking and elastic
// components call back through their Hooks (privately inherited: they are
// not Engine's API).
class Engine final : private Checkpoints::Hooks,
                     private Acking::Hooks,
                     private Elastic::Hooks {
 public:
  Engine(EngineConfig cfg, dsps::Topology topo);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Runs the topology for warmup + measure simulated time; metrics are
  // collected during the measure window only. Returns the report.
  const RunReport& run(Duration warmup, Duration measure);

  const RunReport& report() const { return report_; }
  // The calling thread's partition simulation on parallel runs (partition 0
  // outside execution, which post-run readers want); `sim_` on serial runs.
  sim::Simulation& simulation() {
    return psim_ ? psim_->current() : sim_;
  }
  // True when this run executes on the parallel kernel (cfg.sim.threads
  // opted in AND the configuration was provably safe to partition).
  bool parallel() const { return psim_ != nullptr; }
  // The partitioner's decision: engaged / partition count / threads, or the
  // first disqualifying knob. Available from construction (before run());
  // run() copies it into the report's `parallel` block.
  const RunReport::ParallelDecision& parallel_decision() const {
    return parallel_info_;
  }
  // Node -> partition map of the engaged kernel; empty on serial runs.
  std::vector<int> node_partition_map() const {
    return psim_ ? psim_->node_partition_map() : std::vector<int>{};
  }
  net::Fabric& fabric() { return *fabric_; }

  // --- introspection (tests, monitors) ----------------------------------
  size_t num_tasks() const { return tasks_.size(); }
  size_t num_mcast_groups() const { return mcast_->size(); }
  const multicast::MulticastTree& group_tree(size_t g) const {
    return mcast_->group(g).tree;
  }
  int group_dstar(size_t g) const { return mcast_->dstar(mcast_->group(g)); }

  // --- observability -----------------------------------------------------
  // Configured from cfg_.obs at construction; both are inert (zero extra
  // simulation events, zero counter traffic) unless enabled there.
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  // Recomputes the derived end-of-run obs counters (QP losses, fabric
  // drops, in-flight census). Idempotent: run() calls it once; tests that
  // drain post-window events may call it again for a settled census.
  void obs_finalize();

  // --- elastic rescaling (tests) ------------------------------------------
  // Live parallelism of an operator (rescales update it in place).
  int op_parallelism(int op) const {
    return topo_.ops[static_cast<size_t>(op)].parallelism;
  }
  // False for retired (scaled-away) task slots; true otherwise.
  bool task_active(int task) const {
    return tasks_[static_cast<size_t>(task)]->active;
  }
  // Whether op can be elastically rescaled (false with elasticity off).
  bool op_rescalable(int op) const {
    return elastic_ && elastic_->rescalable(op);
  }

 private:
  struct TaskRt {
    int id = 0, op = 0, instance = 0, worker = 0, node = 0;
    std::unique_ptr<sim::CpuServer> cpu;
    std::unique_ptr<sim::BoundedQueue<Delivery>> in_queue;
    std::unique_ptr<dsps::Bolt> bolt;
    std::unique_ptr<dsps::Spout> spout;
    bool processing = false;
    // Elastic rescaling (src/elastic; DESIGN.md §14). A retired instance
    // stays in tasks_ (ids are stable engine-wide) but turns inactive:
    // deliveries to it are counted stale drops and its executor never
    // pumps again. `quiesced` fences a live instance during the migration
    // window — set when it seals the rescale epoch, cleared (or turned into
    // retirement) when that epoch commits or aborts.
    bool active = true;
    bool quiesced = false;
    // Routing: one strategy per out stream (indexed like op.out_streams).
    // Stateful strategies (shuffle cursors, PKG tallies) are registered as
    // "__route.*" cells in `store`, so routing state checkpoints and rolls
    // back with everything else.
    std::vector<std::unique_ptr<dsps::PartitioningStrategy>> strategies;

    // Per-spout-instance arrival state (DESIGN.md §13): each spout instance
    // draws its arrival gaps and tuple content from its own deterministically
    // seeded RNG and allocates root ids from its own disjoint stream
    // (next_root += root_stride, stride = total spout instances). Identical
    // on the serial and parallel paths — serial stays the ground truth —
    // and it is what lets spout-hosting nodes partition like any other node
    // instead of folding into partition 0. Unused (stride 0) for bolts.
    Rng spout_rng{0};
    uint64_t next_root = 0;
    uint64_t root_stride = 0;

    // The operator's registered state cells (its checkpoint).
    state::StateStore store;
  };

  // A worker process's dataflow side; its threads, transfer queue and
  // channels live in the transport. Liveness is Fabric::node_up.
  struct WorkerRt {
    int id = 0, node = 0;
    Time down_since = 0;  // last crash
    // Local task ids per operator (dispatch targets).
    std::vector<std::vector<int>> op_local_tasks;
  };

  // Per-root-tuple multicast reception tracking (drives the multicast
  // latency metric: time until EVERY destination instance has received
  // the tuple). Throughput is tracked separately as aggregate processed
  // tuples per instance, which stays meaningful under overload.
  struct McastTrack {
    Time emit = 0;
    Time max_recv = 0;  // latest reception so far (order-independent)
    uint32_t remaining_recv = 0;
  };
  // Per-root-tuple source communication-time tracking (Figs. 25/26).
  struct CommTrack {
    Time start = 0;
    Time last = 0;
    double ser_ns = 0;
    uint32_t outstanding = 0;
  };

  // --- construction ------------------------------------------------------
  void build_runtime();
  // Builds one executor of `op` on `worker` and registers it in tasks_,
  // op_tasks_ and the worker's op_local_tasks: CPU server, in-queue with
  // its pump hook, one routing strategy per out-stream (stateful ones as
  // "__route.*" state cells, load-aware ones with their probe), then the
  // operator's prepare() and register_state(). Used at build time and by
  // elastic spawns.
  TaskRt& add_task(int op, int instance, int worker);
  // Node's core pool under cfg_.model_core_contention, else null.
  sim::CorePool* core_pool(int node) const;

  // --- data path -----------------------------------------------------------
  void schedule_arrival(int task);
  void pump_task(TaskRt& t);
  void process_tuple(TaskRt& t, Delivery d);
  // The `done` continuations ride InlineFunction (slab-backed overflow),
  // not std::function: the emission chain runs per tuple, and its capture
  // sizes routinely exceed std::function's tiny inline buffer.
  void route_emissions(TaskRt& t, dsps::Emissions emissions,
                       InlineFunction done);
  // Sends one emission (mcast or point-to-point); calls `done` when the
  // task's executor may move on (all messages accepted by the queue).
  void send_emission(TaskRt& t, dsps::Tuple tuple, int stream,
                     InlineFunction done);
  // `dsts` rides a pooled vector: the common shuffle/fields case is a
  // one-element list built per tuple, which would otherwise be a heap
  // allocation on every send.
  void send_point_to_point(TaskRt& t, std::shared_ptr<const dsps::Tuple> tup,
                           PooledVec<int> dsts, InlineFunction done);
  void send_mcast(TaskRt& t, const McastGroups::Group& g,
                  std::shared_ptr<const dsps::Tuple> tup,
                  InlineFunction done);
  void deliver_local(TaskRt& dst, std::shared_ptr<const dsps::Tuple> tup,
                     int src_task, uint64_t gen);

  // --- receive path ----------------------------------------------------------
  // The transport's receive hook: demuxes a live worker's packet by kind.
  void handle_bytes(WorkerRt& w, rdma::Packet pkt, int src_worker);
  void dispatch_instance(WorkerRt& w, rdma::Packet pkt);
  void dispatch_batch(WorkerRt& w, rdma::Packet pkt);
  void dispatch_mcast(WorkerRt& w, rdma::Packet pkt, const Envelope& env);
  void relay_mcast(WorkerRt& w, const McastGroups::Group& g, int my_endpoint,
                   const rdma::Packet& pkt);

  // --- multicast bookkeeping -------------------------------------------------
  void mcast_track_start(uint64_t root_id, Time emit, uint32_t total);
  void mcast_track_received(uint64_t root_id);
  void comm_track_delivery(uint64_t root_id);

  // --- fault injection & recovery -------------------------------------------
  void arm_faults();
  // Empties t's in-queue (and with state on its stash and fence); returns
  // the data tuples dropped.
  uint64_t drain_task(TaskRt& t);
  void on_node_crash(int node);
  void on_node_restart(int node);
  // Counts `n` data tuples lost in both ledgers (report and obs).
  void count_lost(uint64_t n = 1) override {
    tuples_lost_ += n;
    if (c_lost_) c_lost_->inc(n);
  }

  // --- checkpointing: the Hooks the component calls --------------------------
  bool state_on() const { return cfg_.state.enabled; }
  // Emits `epoch`'s barrier on every out-stream of `task` (its own frames,
  // never batched with data).
  void forward_barrier(int task, uint64_t epoch, InlineFunction done) override;
  void resume(int task) override;
  void replayed(uint64_t root) override;
  void filtered(const Delivery& d) override;
  // Elastic rescaling rides these.
  void epoch_begun(uint64_t epoch) override {
    if (elastic_) elastic_->epoch_begun(epoch);
  }
  void task_sealed(int task, uint64_t epoch) override;
  void epoch_committed(uint64_t epoch) override {
    if (elastic_) elastic_->epoch_committed(epoch);
  }
  void epoch_aborted(uint64_t epoch) override;

  // --- acking: the Hooks the component calls --------------------------------
  bool spout_up(int task) override;
  bool reinject(int task, std::shared_ptr<const dsps::Tuple> root) override;

  // --- elastic rescaling: the Hooks the component calls ----------------------
  void spawn(int op, int instance, int node) override;
  uint64_t retire(int task) override;
  void reshape(int op,
               const std::vector<std::vector<uint8_t>>& images) override;
  void release() override;

  // --- metrics ----------------------------------------------------------------
  bool in_window() const {
    const Time now = cur_sim().now();
    return now >= window_start_ && now < window_end_;
  }
  void finalize_report(Duration measure);
  void snapshot_at_window_start();

  // --- parallel kernel (src/sim/parallel.h; DESIGN.md §13) -----------------
  // Decides eligibility, builds the node->partition map and the
  // ParallelSimulation. Called before the fabric is constructed (the
  // fabric binds NICs to partitions); the lookahead is derived after.
  void setup_parallel();
  // The simulation events on the calling thread must schedule into /
  // read clocks from: the thread's partition on parallel runs, sim_
  // otherwise. Hot path cost when serial: one null check.
  sim::Simulation& cur_sim() const {
    return psim_ ? psim_->current() : const_cast<Engine*>(this)->sim_;
  }
  // The partition simulation owning `node` (sim_ when serial) — for
  // scheduling work that must execute on a specific node's partition.
  sim::Simulation& node_sim(int node) {
    return psim_ ? psim_->node_sim(node) : sim_;
  }
  // Guard for report_/track-map updates that several partitions can reach.
  // Engaged only on parallel runs; serial runs construct an empty (lock-
  // free) unique_lock, so the serial hot path takes no mutex.
  std::unique_lock<std::mutex> shared_guard() {
    return psim_ ? std::unique_lock<std::mutex>(shared_mu_)
                 : std::unique_lock<std::mutex>();
  }

  // --- observability ----------------------------------------------------------
  void obs_setup();
  bool metrics_on() const { return metrics_.enabled(); }
  bool trace_on() const { return tracer_.enabled(); }

  EngineConfig cfg_;
  dsps::Topology topo_;
  sim::Simulation sim_;
  // Parallel kernel; null on serial runs (the common case). Declared
  // after sim_ (it supersedes it) and before fabric_ (NICs bind to its
  // partitions), and destroyed in reverse order — the worker threads
  // join before anything they touched is torn down.
  std::unique_ptr<sim::ParallelSimulation> psim_;
  std::unique_ptr<net::Fabric> fabric_;
  // Worker threads, transfer queues and channels (core/transport.h).
  std::unique_ptr<Transport> transport_;
  // Multicast trees, d* control and tree changes (core/mcast_groups.h).
  std::unique_ptr<McastGroups> mcast_;
  // Serializes cross-partition updates to report_ and the track maps on
  // parallel runs (see shared_guard()); never taken on serial runs.
  std::mutex shared_mu_;
  // The partitioner's decision, fixed at construction (setup_parallel).
  RunReport::ParallelDecision parallel_info_;

  std::vector<std::unique_ptr<sim::CorePool>> core_pools_;  // per node
  std::vector<std::unique_ptr<TaskRt>> tasks_;
  std::vector<std::unique_ptr<WorkerRt>> workers_;
  std::vector<std::vector<int>> op_tasks_;  // operator -> task ids
  // Per operator: stream id -> index into op.out_streams, precomputed at
  // wiring time. Routing a stream the operator does not own is a hard
  // error (out_index throws), never a silent fallback.
  std::vector<std::unordered_map<int, size_t>> op_out_index_;
  size_t out_index(int op, int stream) const;
  // Per (stream, destination instance) processed-tuple counts: whole-run
  // live values for the obs gauges, window-start snapshot for the report.
  std::vector<std::vector<uint64_t>> stream_instance_counts_;
  std::vector<std::vector<uint64_t>> stream_instance_snap_;

  std::unordered_map<uint64_t, McastTrack> mcast_tracks_;
  std::unordered_map<uint64_t, CommTrack> comm_tracks_;
  uint64_t tuples_lost_ = 0;
  // Per-stream processed counts and destination-instance counts for
  // all-grouped streams (throughput normalization).
  std::vector<uint64_t> mcast_processed_per_stream_;
  std::vector<uint32_t> stream_dst_count_;

  // Epoch barriers, snapshots and recovery (core/checkpoints.h). Always
  // built (the data path stamps its incarnation); it is held in place, so
  // that stamp is one load.
  std::optional<Checkpoints> ckpt_;
  // Tuple-tree acking and spout replay (core/acking.h); null unless
  // cfg_.enable_acking, so each data-path call site is one null test.
  std::unique_ptr<Acking> acking_;

  // Runtime rescaling (core/elastic.h); null unless cfg_.elastic.enabled.
  std::unique_ptr<Elastic> elastic_;

  int primary_src_task_ = -1;  // source of the first all-grouped stream
  int primary_src_worker_ = -1;
  Time window_start_ = 0;
  Time window_end_ = 0;
  bool running_ = false;

  // Window-start snapshots.
  uint64_t snap_bytes_tcp_ = 0;
  uint64_t snap_bytes_rdma_ = 0;
  uint64_t snap_src_node_bytes_ = 0;

  // Queue sampling accumulators.
  double queue_len_accum_ = 0.0;
  uint64_t queue_samples_ = 0;

  // Observability. Counter pointers are cached at setup and stay null while
  // metrics are disabled, so every hot-path hook is a single null check.
  // The obs.* counters are WHOLE-RUN (not window-gated like RunReport):
  // the invariant sweep balances them against each other, which only works
  // if every emission/loss/completion is counted regardless of window.
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  obs::Counter* c_roots_ = nullptr;         // spout emissions (replays too)
  obs::Counter* c_input_drops_ = nullptr;   // spout in-queue rejections
  obs::Counter* c_queue_rejects_ = nullptr; // executor in-queue rejections
  obs::Counter* c_sink_ = nullptr;          // sink-operator completions
  obs::Counter* c_lost_ = nullptr;          // engine-level data losses
  obs::Counter* c_lost_qp_ = nullptr;       // QP reset losses (finalized)
  obs::Counter* c_qp_fabric_drops_ = nullptr;  // QP->fabric drops (finalized)
  obs::Counter* c_inflight_ = nullptr;      // end-of-run census (finalized)
  LatencyHistogram* h_sink_latency_ = nullptr;

  RunReport report_;
};

}  // namespace whale::core

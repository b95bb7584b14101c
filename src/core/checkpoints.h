// The checkpoint component (DESIGN.md §2, §10, §12): the one owner of
// exactly-once — the epoch protocol, recovery, the CheckpointStore, the
// sink ledger and the dataflow incarnation the data path stamps. With
// cfg.state.enabled off it schedules and counts nothing. Checkpointing
// makes the parallel kernel fall back, so it never runs on a partition
// thread.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/inline_function.h"
#include "common/time.h"
#include "core/config.h"
#include "core/mcast_groups.h"
#include "core/report.h"
#include "dsps/topology.h"
#include "dsps/tuple.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/cpu.h"
#include "sim/queue.h"
#include "state/checkpoint_store.h"
#include "state/state_store.h"

namespace whale::core {

// A tuple instance delivered to an executor; the ack edge links it into
// the root's XOR ledger when acking is enabled (0 = untracked).
struct Delivery {
  std::shared_ptr<const dsps::Tuple> tuple;
  uint64_t ack_edge = 0;
  int32_t src_task = -1;  // producing task (-1 = spout arrival/injection)
  bool replayed = false;  // checkpoint-recovery re-emission (skip the log)
  uint64_t gen = 0;       // dataflow incarnation (see OutMsg::gen)
  // Re-injected in-flight channel state (unaligned barriers). Its root
  // may sit in the committed-roots filter — the original live pass was
  // filtered-exempt too, so this bypasses the sink dup filter.
  bool from_channel_state = false;
};

class Checkpoints {
 public:
  // An executor as the protocol drives it.
  struct Executor {
    int id = 0, op = 0, node = 0;
    sim::CpuServer* cpu = nullptr;  // serializes snapshots, posts writes
    sim::BoundedQueue<Delivery>* in_queue = nullptr;
    state::StateStore* store = nullptr;
  };

  // What the protocol asks of the engine. Virtual rather than
  // std::function: resume and forward_barrier run once per barrier.
  class Hooks {
   public:
    // Emits `epoch`'s barrier on every out-stream of `task`; `done` fires
    // once every copy is queued.
    virtual void forward_barrier(int task, uint64_t epoch,
                                 InlineFunction done) = 0;
    // `task` is done with its delivery: take the next one.
    virtual void resume(int task) = 0;
    virtual void count_lost(uint64_t n) = 0;  // data tuples
    // A spout-log replay of `root` was queued; the sink filter dropped `d`.
    virtual void replayed(uint64_t root) = 0;
    virtual void filtered(const Delivery& d) = 0;
    // The epoch events elastic rescaling rides. An abort has closed every
    // fence, so the engine wakes its executors.
    virtual void epoch_begun(uint64_t epoch) = 0;  // before its barriers
    virtual void task_sealed(int task, uint64_t epoch) = 0;
    virtual void epoch_committed(uint64_t epoch) = 0;
    virtual void epoch_aborted(uint64_t epoch) = 0;

   protected:
    ~Hooks() = default;
  };

  // `trace_pid` is the worker its control trace events land on.
  Checkpoints(const EngineConfig& cfg, const dsps::Topology& topo,
              const std::vector<std::vector<int>>& op_tasks,
              net::Fabric& fabric, McastGroups& mcast, obs::Tracer& tracer,
              RunReport& report, Hooks& hooks, int trace_pid);
  Checkpoints(const Checkpoints&) = delete;  // callbacks hold `this`
  Checkpoints& operator=(const Checkpoints&) = delete;

  // The dataflow incarnation, bumped by every restart. A delivery stamped
  // with an older one was sent before a recovery and is dropped.
  uint64_t gen() const { return gen_; }

  // Registers executor `x.id` (ids are dense). One added during the run
  // (an elastic spawn) is bound to the store at once.
  void add_task(const Executor& x);
  // Executor `task` as registered; with state on only.
  const Executor& executor(int task) const {
    return tasks_[static_cast<size_t>(task)].x;
  }
  // Binds every task's epoch-0 image and starts the epoch ticks.
  void start(Time window_end);
  void register_metrics(obs::MetricsRegistry& metrics);
  void finalize();

  // --- data path ----------------------------------------------------------
  // True to run the operator on `d`. On false the protocol took it — a
  // stale incarnation, a barrier, a tuple stashed behind an aligned fence
  // or a sink's committed root — and resumes the executor itself.
  bool admit(int task, Delivery& d);
  // The oldest delivery stashed behind `task`'s fence once it has closed.
  std::optional<Delivery> unstash(int task) {
    Task& t = tasks_[static_cast<size_t>(task)];
    if (t.stash.empty() || !t.fenced.empty()) return std::nullopt;
    std::optional<Delivery> d(std::move(t.stash.front()));
    t.stash.pop_front();
    return d;
  }
  void log_emission(int task, const dsps::Tuple& t);
  // A sink completion waits for the sink's next seal.
  void sink_pending(int task, uint64_t root) {
    tasks_[static_cast<size_t>(task)].sink_pending.push_back(root);
  }
  // A barrier of `epoch` died at a dead or full destination or could not
  // enter a reconfiguring tree. Aborts the epoch, deferred: the caller is
  // deep inside a delivery callback.
  void barrier_lost(uint64_t epoch);
  size_t stashed() const;  // over all tasks

  // --- faults and elastic rescaling ---------------------------------------
  // Empties `task`'s in-queue and stash and drops its fence; returns the
  // data tuples dropped.
  uint64_t drain(int task);
  void abort();  // of the epoch in flight, if any (a crash dooms it)
  // `reader` reads the committed images back to restarted `node`; then
  // every task rolls back and the spouts replay their logs.
  void on_restart(int node, sim::CpuServer* reader);
  // Drains and forgets a retired task; returns the data tuples drained.
  uint64_t retire(int task);
  // Makes `task`'s live state its recovery image (a rescale installed it).
  void install(int task);
  // Recounts input channels and epoch participants (build and rescale).
  void rescaled();

 private:
  struct LogEntry {
    uint64_t epoch;
    dsps::Tuple tuple;
  };
  struct Task {
    // What admit() reads per tuple comes first.
    bool spout = false, sink = false, active = true;
    // The barrier fence, open from an epoch's first barrier at this task
    // to its last. `fenced` holds the channels, (stream << 32) | src_task,
    // whose barrier arrived. The snapshot is `cut` at the last barrier
    // when aligned and at the first when unaligned, and sealed at the
    // last in both modes. Aligned, a fenced channel's tuples belong to the
    // next epoch and wait in `stash`. Unaligned, an unfenced channel's
    // tuples arrive after the cut but belong to this epoch: they are
    // processed live AND `captured` as channel state.
    std::unordered_set<uint64_t> fenced;
    Executor x;
    uint64_t epoch = 0;  // last epoch this task sealed
    int expected = 0;    // input channels: barriers per epoch
    Time fence_start = 0;
    std::deque<Delivery> stash;
    std::optional<state::CheckpointStore::Snapshot> cut;
    std::vector<dsps::Tuple> captured;
    // The epoch in flight: the sealed snapshot's bytes and channel state
    // and whether its write landed. `channel` is the committed epoch's
    // channel state, which recovery re-injects.
    std::optional<state::StateStore::DeltaStats> staged;
    std::vector<dsps::Tuple> staged_channel;
    uint64_t staged_channel_bytes = 0;
    bool written = false;
    std::vector<dsps::Tuple> channel;
    std::vector<uint64_t> sink_pending;  // sink roots since the last seal
    std::vector<LogEntry> log;           // a spout's emissions by epoch
    std::vector<dsps::Tuple> replay;     // the log's uncommitted rewind
    size_t replayed = 0;
  };

  bool enabled() const { return cfg_.state.enabled; }
  sim::Simulation& sim() const { return fabric_.simulation(); }
  void tick_loop();
  void inject();
  void unstage();  // drops the in-flight epoch's staging
  void on_barrier(Task& t, const dsps::Tuple& b);
  // Closes t's fence: its open time is align stall when aligned; the
  // stash stays and drains first when t resumes.
  void close_fence(Task& t);
  void write(Task& t, uint64_t epoch, state::CheckpointStore::Snapshot snap,
             uint64_t channel_bytes);
  void commit();
  void recover();
  // Queues `task`'s next logged tuple, one event apart; `gen` stops the
  // rewind of a superseded recovery.
  void replay(int task, uint64_t gen);

  const EngineConfig& cfg_;
  const dsps::Topology& topo_;
  const std::vector<std::vector<int>>& op_tasks_;
  net::Fabric& fabric_;
  McastGroups& mcast_;
  obs::Tracer& tracer_;
  RunReport& report_;
  Hooks& hooks_;
  const int trace_pid_;
  std::unique_ptr<state::CheckpointStore> store_;  // iff enabled
  // By task id; a deque, so registering a task never relocates the others.
  std::deque<Task> tasks_;
  Time window_end_ = 0;
  bool started_ = false;

  uint64_t gen_ = 0;
  bool in_flight_ = false;
  uint64_t epoch_ = 0;           // highest epoch ever started
  uint64_t last_committed_ = 0;  // 0 = nothing committed yet
  Time epoch_start_ = 0;         // barrier injection of epoch_
  Duration epoch_duration_total_ = 0;
  size_t participants_ = 0;      // tasks whose writes an epoch waits for
  size_t writes_landed_ = 0;
  // Sink roots sealed into the epoch in flight, and every committed one.
  // A sealed root stays queued across an abort: its completion was real,
  // only the snapshot failed, and the next committing epoch owns it.
  std::vector<uint64_t> sealed_roots_;
  std::unordered_set<uint64_t> committed_roots_;

  obs::Tally epochs_completed_{report_.epochs_completed};
  obs::Tally epochs_aborted_{report_.epochs_aborted};
  obs::Tally barriers_injected_{report_.barriers_injected};
  obs::Tally snapshot_bytes_{report_.checkpoint_bytes};
  obs::Tally committed_completions_{report_.committed_completions};
  obs::Tally duplicates_filtered_{report_.duplicates_filtered};
  obs::Tally replayed_tuples_{report_.checkpoint_replays};
  // Channel-state re-injections, queued or lost: fresh instances for the
  // data ledger (report_.channel_replays counts the queued ones).
  obs::Counter* c_reinjections_ = nullptr;
};

}  // namespace whale::core

// The elastic component (DESIGN.md §2, §14): the one owner of runtime
// rescaling — the config checks and eligibility, one ScalingController per
// rescalable operator with its d* backlog probe, the poll loop, plan
// adoption, the quiesce set, the keyed-cell merge and re-split, placement,
// and the elastic report fields, counters, gauges and rescale.* trace
// events. The engine builds it only with cfg.elastic.enabled. Elasticity
// makes the parallel kernel fall back, so the component never runs on a
// partition thread and takes no lock.
//
// Protocol. At most one plan is in flight engine-wide; it rides the next
// checkpoint epoch through the checkpoint component's events. The epoch's
// begin stamps it. Every task in the quiesce set — the rescaled operator
// plus every operator with a stream into it — freezes when it seals that
// epoch, AFTER forwarding the barrier and launching its snapshot write, so
// the commit never waits on a quiesced executor. Per-channel FIFO then
// guarantees that when the epoch commits, the rescaled operator's queues
// hold no data: everything its upstreams emitted before quiescing was
// processed before the operator's own alignment. The commit runs the
// cutover at its very end — no epoch in flight, no group switching or
// repairing, no barrier inside any tree — the one point where the topology
// can change atomically. An abort instead cancels the plan (the controller
// re-issues after its cooldown if the backlog persists).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/time.h"
#include "core/checkpoints.h"
#include "core/config.h"
#include "core/mcast_groups.h"
#include "core/report.h"
#include "dsps/topology.h"
#include "elastic/controller.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace whale::core {

class Elastic {
 public:
  // What a cutover changes in the engine's runtime, in the order it runs
  // them. Virtual rather than std::function, as Acking::Hooks.
  class Hooks {
   public:
    // Builds instance `instance` of `op` on `node`'s worker, binds it to
    // the checkpoint store and registers its gauges.
    virtual void spawn(int op, int instance, int node) = 0;
    // Stops `task` for good; returns the data tuples still queued at it.
    virtual uint64_t retire(int task) = 0;
    // `op` now runs at its topology parallelism: drops the retired tasks
    // from the task indexes, restores live instance i from `images[i]` and
    // installs that as its recovery image, and rebalances the streams
    // into `op`.
    virtual void reshape(int op,
                         const std::vector<std::vector<uint8_t>>& images) = 0;
    // Lets the quiesced executors run again.
    virtual void release() = 0;

   protected:
    ~Hooks() = default;
  };

  // Throws std::invalid_argument, naming the field, for a config the
  // protocol cannot honor. Trace events land on worker `trace_pid`.
  Elastic(const EngineConfig& cfg, dsps::Topology& topo,
          const std::vector<std::vector<int>>& op_tasks, Checkpoints& ckpt,
          McastGroups& mcast, sim::Simulation& sim, obs::Tracer& tracer,
          RunReport& report, Hooks& hooks, int trace_pid);
  Elastic(const Elastic&) = delete;  // the poll loop holds `this`
  Elastic& operator=(const Elastic&) = delete;

  // Whether `op` can rescale: spouts, all-grouped sources and operators
  // with state cells that are neither keyed nor routing cannot.
  bool rescalable(int op) const;
  void register_metrics(obs::MetricsRegistry& metrics);
  // Starts the polls; the last one runs at or after `window_end`.
  void start(Time window_end);

  // A delivery reached a retired instance. The quiesce protocol makes this
  // unreachable for data, so the count is a proof obligation (asserted 0).
  void stale_drop() { stale_drops_.add(); }

  // --- the checkpoint component's epoch events ----------------------------
  void epoch_begun(uint64_t epoch);
  // Whether a task of `op` that sealed `epoch` stays quiesced until the
  // cutover.
  bool quiesces(int op, uint64_t epoch) const {
    return epoch == rescale_epoch_ && quiesce_ops_.count(op) != 0;
  }
  void epoch_committed(uint64_t epoch);
  // The engine lifts every quiesce itself when an epoch aborts.
  void epoch_aborted(uint64_t epoch);

 private:
  // Feeds every controller its operator's backlog, adopts the first plan
  // and re-arms until the window ends.
  void poll();
  // Mean in-queue fill fraction of `op`'s instances, in [0, 1].
  double backlog(int op) const;
  // The node for a fresh instance of `op`.
  int place(int op) const;
  // Runs the adopted plan at its epoch's commit.
  void cutover();
  int node(int task) const { return ckpt_.executor(task).node; }

  const EngineConfig& cfg_;
  dsps::Topology& topo_;
  const std::vector<std::vector<int>>& op_tasks_;
  Checkpoints& ckpt_;
  McastGroups& mcast_;
  sim::Simulation& sim_;
  obs::Tracer& tracer_;
  RunReport& report_;
  Hooks& hooks_;
  const int trace_pid_;
  Time window_end_ = 0;

  // By operator; null for the operators rescalable() excludes.
  std::vector<std::unique_ptr<elastic::ScalingController>> controllers_;
  std::optional<elastic::RescalePlan> plan_;
  uint64_t rescale_epoch_ = 0;  // 0: no plan rides an epoch
  Time rescale_start_ = 0;      // that epoch's barrier injection
  std::unordered_set<int> quiesce_ops_;

  obs::Tally polls_{report_.elastic.polls};
  obs::Tally scale_ups_{report_.elastic.scale_ups};
  obs::Tally scale_downs_{report_.elastic.scale_downs};
  obs::Tally canceled_{report_.elastic.rescales_canceled};
  obs::Tally bytes_moved_{report_.elastic.state_bytes_moved};
  obs::Tally stale_drops_{report_.elastic.stale_drops};
};

}  // namespace whale::core

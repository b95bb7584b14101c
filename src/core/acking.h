// The acking component (DESIGN.md §2, §5, §6): the one owner of
// at-least-once — Storm's XOR ledger over each root's tuple tree, the edge
// ids anchored at emission and taken at delivery, the timeout sweep, and,
// with checkpointing off, the spout replay buffer that re-emits a failed
// root. The engine builds it only with cfg.enable_acking. Acking makes the
// parallel kernel fall back, so it never runs on a partition thread and
// takes no lock.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "core/config.h"
#include "core/report.h"
#include "dsps/acker.h"
#include "dsps/tuple.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace whale::core {

class Acking {
 public:
  // What replay asks of the engine. Virtual rather than std::function, as
  // Checkpoints::Hooks.
  class Hooks {
   public:
    // Whether spout `task`'s node is up to take a replay.
    virtual bool spout_up(int task) = 0;
    // Queues `root`, a replayed root tuple, at spout `task`; false when the
    // spout's queue is full.
    virtual bool reinject(int task,
                          std::shared_ptr<const dsps::Tuple> root) = 0;

   protected:
    ~Hooks() = default;
  };

  Acking(const EngineConfig& cfg, sim::Simulation& sim, obs::Tracer& tracer,
         RunReport& report, Hooks& hooks);
  Acking(const Acking&) = delete;  // the ledger's callbacks hold `this`
  Acking& operator=(const Acking&) = delete;

  // Starts the timeout sweep. Report fields count inside the window;
  // ack.complete instants land on worker `trace_pid`.
  void start(Time window_start, Time window_end, int trace_pid);
  size_t pending() const { return ledger_.pending(); }

  // --- data path ----------------------------------------------------------
  // Spout `task` on `worker` emitted root tuple `t`. With checkpointing off
  // the replay buffer keeps a copy; with it on, recovery replaces replay.
  void emitted(const dsps::Tuple& t, int task, int worker);
  // A checkpoint recovery re-emitted `root` from its spout's log.
  void reemitted(uint64_t root) { ledger_.root_emitted(root, sim_.now()); }
  // Anchors one edge of `root` towards `task`, at emission (Storm's order:
  // otherwise the ledger would zero while messages are on the wire).
  void anchor(uint64_t root, int task);
  // The edge a delivery of `root` at `task` acks when processed; 0 when the
  // root is untracked.
  uint64_t take(uint64_t root, int task);
  // A task is done with a tuple of `root`: a spout has anchored every edge
  // of its emission; a bolt acks the delivery's `edge`.
  void finished(uint64_t root, uint64_t edge, bool spout) {
    if (spout) {
      ledger_.root_finished(root);
    } else if (edge != 0) {
      ledger_.acked(root, edge);
    }
  }
  // A tuple of `root` was dropped: the root can never complete.
  void fail(uint64_t root) { ledger_.fail(root); }

 private:
  // A root held for replay until it completes or its replays run out.
  struct Held {
    dsps::Tuple tuple;
    int task = 0, worker = 0;
    int attempts = 0;
  };

  bool in_window() const {
    return sim_.now() >= window_start_ && sim_.now() < window_end_;
  }
  void sweep(Duration period);
  void completed(uint64_t root, Time emit);
  void failed(uint64_t root);
  // Re-emits a held root at its spout, or writes it off once its replays
  // are used up.
  void replay(uint64_t root);

  const EngineConfig& cfg_;
  sim::Simulation& sim_;
  obs::Tracer& tracer_;
  RunReport& report_;
  Hooks& hooks_;
  int trace_pid_ = 0;
  Time window_start_ = 0, window_end_ = 0;

  dsps::AckerLedger ledger_;
  // Edge ids come from a hashed counter: sequential ids could cancel to
  // zero in the XOR ledger (1 ^ 2 ^ 3 == 0).
  uint64_t next_edge_ = 1;
  // root -> task -> FIFO of anchored-but-undelivered edges. Which delivery
  // takes which edge is irrelevant to the ledger; each edge is anchored
  // and acked once.
  std::unordered_map<uint64_t, std::unordered_map<int, std::vector<uint64_t>>>
      edges_;
  std::unordered_map<uint64_t, Held> held_;
};

}  // namespace whale::core

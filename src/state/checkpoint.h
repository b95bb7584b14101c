// Epoch/checkpoint bookkeeping for aligned-barrier snapshots
// (DESIGN.md §10).
//
// Barriers are in-band sentinel Tuples (root_id 0 — never acked, never
// tracked — plus a magic first value carrying {epoch, src_task}), so they
// ride every existing transport path unchanged: framed once per
// destination worker, fanned out by the dispatcher, forwarded by relays
// in tree order, kept FIFO with data by the per-channel slicer. No new
// wire message kind exists.
//
// The CheckpointCoordinator is passive bookkeeping: the engine drives
// every transition and owns all scheduling. It holds no snapshot bytes —
// the images live in the CheckpointStore (state/checkpoint_store.h); the
// coordinator keeps epochs, the sink ledger, the spout logs, channel
// state and byte accounting. At most one epoch is in
// flight; an epoch that cannot finish by the next injection tick (or that
// loses a barrier to a full queue, a crash, or a dead destination) is
// aborted, which bounds alignment stall at one checkpoint interval and
// makes alignment deadlock impossible by construction.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/time.h"
#include "dsps/tuple.h"
#include "state/state.h"
#include "state/state_store.h"

namespace whale::state {

// "WBARRIER" — collides with data only if a tuple's first value is this
// exact int64 AND its root id is 0; engine root ids start at 1.
inline constexpr int64_t kBarrierMagic = 0x5742415252494552LL;

dsps::Tuple make_barrier(uint64_t epoch, int src_task);
bool is_barrier(const dsps::Tuple& t);
uint64_t barrier_epoch(const dsps::Tuple& t);
int barrier_src_task(const dsps::Tuple& t);

class CheckpointCoordinator {
 public:
  struct Stats {
    uint64_t epochs_completed = 0;
    uint64_t epochs_aborted = 0;
    uint64_t barriers_injected = 0;
    uint64_t snapshot_bytes_total = 0;
    uint64_t committed_completions = 0;  // sink roots committed (first time)
    uint64_t duplicates_filtered = 0;    // sink roots rejected by the filter
    uint64_t recoveries = 0;
    uint64_t replayed_tuples = 0;        // re-injected from the epoch log
    Duration last_epoch_duration = 0;    // inject -> commit
    Duration epoch_duration_total = 0;
    Duration align_stall_total = 0;      // summed over tasks (engine-fed)
    // Incremental accounting (DESIGN.md §12). full_bytes_total is what
    // full snapshots of the committed epochs WOULD have cost; with
    // snapshot_bytes_total (what actually shipped) it yields the dirty
    // ratio. Channel counters cover unaligned-barrier in-flight capture.
    uint64_t full_bytes_total = 0;
    uint64_t dirty_cells_total = 0;
    uint64_t clean_cells_total = 0;
    uint64_t channel_tuples_captured = 0;  // committed with their epoch
    uint64_t channel_bytes_total = 0;
    uint64_t channel_replayed = 0;         // re-injected at recovery
  };

  void reset(int num_tasks);

  // --- epoch lifecycle ---------------------------------------------------
  bool in_flight() const { return in_flight_; }
  uint64_t current_epoch() const { return epoch_; }
  uint64_t last_committed() const { return last_committed_; }
  uint64_t begin_epoch(Time now);
  // Drops staged accounting; sealed-but-uncommitted sink roots stay
  // queued for the next epoch (they were genuinely processed — only the
  // snapshot failed).
  void abort_epoch();

  // --- per-task snapshot flow -------------------------------------------
  // Stages the byte accounting of `task`'s snapshot for the in-flight
  // epoch (shipped and full bytes plus the cell dirty census); the
  // snapshot itself goes to the CheckpointStore. Returns false if the
  // epoch is stale (already aborted or superseded).
  bool stage(int task, uint64_t epoch, const StateStore::DeltaStats& bytes);
  // Unaligned barriers: stages the in-flight tuples captured between the
  // epoch's first barrier and each channel's own barrier. Committed with
  // the epoch (REPLACING the previous epoch's channel state) and
  // re-injected at recovery. `bytes` is the modeled wire size.
  bool stage_channel_state(int task, uint64_t epoch,
                           std::vector<dsps::Tuple> tuples, uint64_t bytes);
  const std::vector<dsps::Tuple>& committed_channel(int task) const;
  // Marks the async persistent-store write for `task` done. Returns true
  // when every task's write has landed (caller then calls commit()).
  bool write_complete(int task, uint64_t epoch);
  bool ready_to_commit() const;
  // Commits the in-flight epoch: staged bytes are accounted, sealed sink
  // roots enter the committed set, logs are pruned.
  void commit(Time now);

  // --- sink exactly-once -------------------------------------------------
  void sink_pending(int task, uint64_t root);
  // On sink alignment: everything pending at `task` was processed before
  // the barrier, so it belongs to the in-flight epoch.
  void sink_seal(int task);
  bool root_committed(uint64_t root) const {
    return committed_roots_.count(root) != 0;
  }
  uint64_t committed_root_count() const { return committed_roots_.size(); }

  // --- source offsets (the epoch log) ------------------------------------
  // Logged at spout-process time under the epoch the tuple belongs to
  // (the spout's current epoch + 1). Pruned at commit; everything with a
  // tag beyond the committed epoch is the rewind set.
  void log_emission(int spout_task, uint64_t epoch, const dsps::Tuple& t);
  std::vector<dsps::Tuple> uncommitted_emissions(int spout_task) const;

  // --- elastic rescaling (DESIGN.md §14) ----------------------------------
  // Non-destructive participant-count update: future epochs expect writes
  // from `num_tasks` participants, but channel state and the sink
  // exactly-once ledger survive (unlike reset()). Called at rescale
  // commit, when no epoch is in flight.
  void set_num_tasks(int num_tasks) { num_tasks_ = num_tasks; }
  // Drops a retired task's staging, channel state and logs; its slice now
  // lives in the surviving instances' overwritten images.
  void erase_task(int task) {
    staged_.erase(task);
    writes_done_.erase(task);
    staged_channel_.erase(task);
    staged_channel_bytes_.erase(task);
    committed_channel_.erase(task);
    sink_pending_.erase(task);
    logs_.erase(task);
  }

  // --- recovery -----------------------------------------------------------
  // Rolls back to the last committed epoch: aborts any in-flight epoch
  // and discards uncommitted sink pendings (replay re-delivers them).
  void rewind_to_committed();

  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

 private:
  int num_tasks_ = 0;
  bool in_flight_ = false;
  uint64_t epoch_ = 0;           // highest epoch ever started
  uint64_t last_committed_ = 0;  // 0 = nothing committed yet
  Time epoch_start_ = 0;

  // Ordered maps on purpose: commit() iterates these, and byte/fingerprint
  // accounting must accumulate in sorted task order — unordered_map
  // iteration order varies across libc++ versions and platforms.
  std::map<int, StateStore::DeltaStats> staged_;
  std::unordered_set<int> writes_done_;
  // Unaligned channel state: per-epoch, replaced wholesale at commit.
  std::map<int, std::vector<dsps::Tuple>> staged_channel_;
  std::map<int, uint64_t> staged_channel_bytes_;
  std::map<int, std::vector<dsps::Tuple>> committed_channel_;

  std::map<int, std::vector<uint64_t>> sink_pending_;
  std::vector<uint64_t> sealed_roots_;
  std::unordered_set<uint64_t> committed_roots_;

  struct LogEntry {
    uint64_t epoch;
    dsps::Tuple tuple;
  };
  std::map<int, std::deque<LogEntry>> logs_;

  Stats stats_;
};

}  // namespace whale::state

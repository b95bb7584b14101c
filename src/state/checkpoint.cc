#include "state/checkpoint.h"

#include <algorithm>

namespace whale::state {

dsps::Tuple make_barrier(uint64_t epoch, int src_task) {
  dsps::Tuple t;
  t.values.reserve(3);
  t.values.emplace_back(kBarrierMagic);
  t.values.emplace_back(static_cast<int64_t>(epoch));
  t.values.emplace_back(static_cast<int64_t>(src_task));
  t.root_id = 0;  // the acker never tracks root 0
  return t;
}

bool is_barrier(const dsps::Tuple& t) {
  if (t.root_id != 0 || t.values.size() != 3) return false;
  const auto* tag = std::get_if<int64_t>(&t.values[0]);
  return tag != nullptr && *tag == kBarrierMagic;
}

uint64_t barrier_epoch(const dsps::Tuple& t) {
  return static_cast<uint64_t>(t.as_int(1));
}

int barrier_src_task(const dsps::Tuple& t) {
  return static_cast<int>(t.as_int(2));
}

void CheckpointCoordinator::reset(int num_tasks) {
  *this = CheckpointCoordinator{};
  num_tasks_ = num_tasks;
}

uint64_t CheckpointCoordinator::begin_epoch(Time now) {
  in_flight_ = true;
  ++epoch_;
  epoch_start_ = now;
  staged_.clear();
  staged_channel_.clear();
  staged_channel_bytes_.clear();
  writes_done_.clear();
  return epoch_;
}

void CheckpointCoordinator::abort_epoch() {
  if (!in_flight_) return;
  in_flight_ = false;
  staged_.clear();
  staged_channel_.clear();
  staged_channel_bytes_.clear();
  writes_done_.clear();
  ++stats_.epochs_aborted;
  // sealed_roots_ are intentionally kept: those sink completions were
  // real, only their snapshot failed — the next committing epoch owns
  // them.
}

bool CheckpointCoordinator::stage(int task, uint64_t epoch,
                                  const StateStore::DeltaStats& bytes) {
  if (!in_flight_ || epoch != epoch_) return false;
  staged_[task] = bytes;
  return true;
}

bool CheckpointCoordinator::stage_channel_state(int task, uint64_t epoch,
                                                std::vector<dsps::Tuple> tuples,
                                                uint64_t bytes) {
  if (!in_flight_ || epoch != epoch_) return false;
  staged_channel_[task] = std::move(tuples);
  staged_channel_bytes_[task] = bytes;
  return true;
}

const std::vector<dsps::Tuple>& CheckpointCoordinator::committed_channel(
    int task) const {
  static const std::vector<dsps::Tuple> kNone;
  auto it = committed_channel_.find(task);
  return it == committed_channel_.end() ? kNone : it->second;
}

bool CheckpointCoordinator::write_complete(int task, uint64_t epoch) {
  if (!in_flight_ || epoch != epoch_) return false;
  writes_done_.insert(task);
  return ready_to_commit();
}

bool CheckpointCoordinator::ready_to_commit() const {
  return in_flight_ &&
         writes_done_.size() == static_cast<size_t>(num_tasks_);
}

void CheckpointCoordinator::commit(Time now) {
  if (!in_flight_) return;
  in_flight_ = false;
  last_committed_ = epoch_;
  for (const auto& [task, bytes] : staged_) {
    stats_.snapshot_bytes_total += bytes.shipped_bytes;
    stats_.full_bytes_total += bytes.full_bytes;
    stats_.dirty_cells_total += bytes.dirty_cells;
    stats_.clean_cells_total += bytes.clean_cells;
  }
  staged_.clear();
  // Channel state is per-epoch: the committing epoch's captures REPLACE
  // the previous epoch's wholesale (a task that captured nothing this
  // epoch has empty committed channel state, not last epoch's leftovers).
  committed_channel_.swap(staged_channel_);
  staged_channel_.clear();
  for (const auto& [task, tuples] : committed_channel_) {
    stats_.channel_tuples_captured += tuples.size();
  }
  for (const auto& [task, bytes] : staged_channel_bytes_) {
    stats_.snapshot_bytes_total += bytes;
    stats_.channel_bytes_total += bytes;
  }
  staged_channel_bytes_.clear();
  writes_done_.clear();
  // The sealed list holds one entry per sink *delivery*; an all-grouped
  // fan-in legitimately seals the same root several times in one epoch
  // (and across epochs when copies straddle a barrier). Repeats here are
  // normal, not filtered duplicates — duplicates_filtered counts only the
  // engine's runtime drops of already-committed roots.
  for (const uint64_t root : sealed_roots_) {
    if (committed_roots_.insert(root).second) {
      ++stats_.committed_completions;
    }
  }
  sealed_roots_.clear();
  for (auto& [task, log] : logs_) {
    while (!log.empty() && log.front().epoch <= last_committed_) {
      log.pop_front();
    }
  }
  ++stats_.epochs_completed;
  stats_.last_epoch_duration = now - epoch_start_;
  stats_.epoch_duration_total += stats_.last_epoch_duration;
}

void CheckpointCoordinator::sink_pending(int task, uint64_t root) {
  sink_pending_[task].push_back(root);
}

void CheckpointCoordinator::sink_seal(int task) {
  auto it = sink_pending_.find(task);
  if (it == sink_pending_.end()) return;
  sealed_roots_.insert(sealed_roots_.end(), it->second.begin(),
                       it->second.end());
  it->second.clear();
}

void CheckpointCoordinator::log_emission(int spout_task, uint64_t epoch,
                                         const dsps::Tuple& t) {
  logs_[spout_task].push_back(LogEntry{epoch, t});
}

std::vector<dsps::Tuple> CheckpointCoordinator::uncommitted_emissions(
    int spout_task) const {
  std::vector<dsps::Tuple> out;
  auto it = logs_.find(spout_task);
  if (it == logs_.end()) return out;
  for (const auto& e : it->second) {
    if (e.epoch > last_committed_) out.push_back(e.tuple);
  }
  return out;
}

void CheckpointCoordinator::rewind_to_committed() {
  // Quietly drop any in-flight epoch (the engine counts the abort that
  // the crash itself caused; recovery is not a second stall).
  in_flight_ = false;
  staged_.clear();
  staged_channel_.clear();
  staged_channel_bytes_.clear();
  writes_done_.clear();
  sink_pending_.clear();
  sealed_roots_.clear();
  ++stats_.recoveries;
}

}  // namespace whale::state

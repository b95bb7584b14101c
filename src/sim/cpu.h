// CPU servers.
//
// Each executor thread (and each worker send/receive thread) is modeled as a
// single FCFS server: work items occupy the server back to back, and the
// server records busy time per work category. This is what reproduces the
// paper's Fig. 2c (upstream instance CPU saturates while downstream
// instances idle) and Fig. 2d (CPU time breakdown: serialization vs packet
// processing vs rest).
//
// Completion events capture only `this` (plus a slot index for CorePool),
// so they always fit in the kernel's inline callback storage; the job being
// served lives in a member / slab slot instead of the event capture.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/inline_function.h"
#include "common/time.h"
#include "sim/ring.h"
#include "sim/simulation.h"

namespace whale::sim {

// Categories for CPU-time accounting. Mirrors the paper's breakdown of the
// upstream instance: tuple serialization and multi-layer packet processing
// dominate; everything else is application logic / dispatch.
enum class CpuCategory : uint8_t {
  kSerialization = 0,  // tuple -> bytes and bytes -> tuple
  kProtocol,           // kernel TCP/IP packet processing, copies, syscalls
  kRdmaPost,           // posting work requests to the RNIC (kernel bypass)
  kAppLogic,           // spout/bolt user logic
  kDispatch,           // local queue transfers, worker dispatcher
  kOther,
  kCount,
};

inline const char* to_string(CpuCategory c) {
  switch (c) {
    case CpuCategory::kSerialization: return "serialization";
    case CpuCategory::kProtocol: return "protocol";
    case CpuCategory::kRdmaPost: return "rdma_post";
    case CpuCategory::kAppLogic: return "app_logic";
    case CpuCategory::kDispatch: return "dispatch";
    case CpuCategory::kOther: return "other";
    default: return "?";
  }
}

// A node's physical cores. When thread count exceeds core count, runnable
// work queues here FCFS — the OS-scheduler contention a machine shows when
// oversubscribed. CpuServers (threads) optionally acquire a core for each
// job; with no pool attached a thread behaves as if it owned a core.
class CorePool {
 public:
  CorePool(Simulation& sim, int cores) : sim_(sim), free_(cores) {}

  CorePool(const CorePool&) = delete;
  CorePool& operator=(const CorePool&) = delete;

  // Runs `duration` of work on the next free core; `done` fires when the
  // work completes (after possibly waiting for a core).
  void acquire(Duration duration, InlineFunction done) {
    waiting_.push_back(Job{duration, std::move(done), kNilSlot});
    pump();
  }

  int free_cores() const { return free_; }
  size_t runnable() const { return waiting_.size(); }
  Duration busy_time() const { return total_busy_; }

 private:
  static constexpr uint32_t kNilSlot = UINT32_MAX;

  struct Job {
    Duration duration;
    InlineFunction done;
    uint32_t next_free;
  };

  void pump() {
    while (free_ > 0 && !waiting_.empty()) {
      --free_;
      const Duration d = waiting_.front().duration;
      // Park the in-flight job in a slab slot so the completion event
      // captures only {this, slot} and stays allocation-free.
      uint32_t slot;
      if (free_slot_ != kNilSlot) {
        slot = free_slot_;
        free_slot_ = running_[slot].next_free;
        running_[slot] = waiting_.pop_front();
      } else {
        slot = static_cast<uint32_t>(running_.size());
        running_.push_back(waiting_.pop_front());
      }
      sim_.schedule_after(d, [this, slot] { finish(slot); });
    }
  }

  void finish(uint32_t slot) {
    Job job = std::move(running_[slot]);
    running_[slot].next_free = free_slot_;
    free_slot_ = slot;
    total_busy_ += job.duration;
    ++free_;
    if (job.done) job.done();
    pump();
  }

  Simulation& sim_;
  int free_;
  Ring<Job> waiting_;
  std::vector<Job> running_;
  uint32_t free_slot_ = kNilSlot;
  Duration total_busy_ = 0;
};

class CpuServer {
 public:
  CpuServer(Simulation& sim, std::string name, CorePool* pool = nullptr)
      : sim_(sim), name_(std::move(name)), pool_(pool) {}

  CpuServer(const CpuServer&) = delete;
  CpuServer& operator=(const CpuServer&) = delete;

  // Enqueues `duration` of CPU work; `done` runs when the work completes
  // (after all previously enqueued work). `done` may be null.
  void execute(Duration duration, CpuCategory cat,
               InlineFunction done = nullptr) {
    jobs_.push_back(Job{duration, cat, std::move(done)});
    if (!busy_) start_next();
  }

  bool busy() const { return busy_; }
  size_t queue_depth() const { return jobs_.size(); }
  const std::string& name() const { return name_; }

  Duration busy_time() const { return total_busy_; }
  Duration busy_time(CpuCategory cat) const {
    return busy_by_cat_[static_cast<size_t>(cat)];
  }

  // Fraction of [window_start, now] this server spent busy.
  double utilization(Time window_start) const {
    const Duration window = sim_.now() - window_start;
    if (window <= 0) return 0.0;
    const Duration busy_in_window = total_busy_ - busy_at(window_start);
    return static_cast<double>(busy_in_window) / static_cast<double>(window);
  }

 private:
  struct Job {
    Duration duration;
    CpuCategory cat;
    InlineFunction done;
  };

  // Approximation used by utilization(): we only track cumulative busy time,
  // so for a window starting mid-run we linearly attribute the current job.
  // Callers that need exact windows subtract busy_time() readings instead.
  Duration busy_at(Time) const { return window_snapshot_; }

 public:
  // Marks the start of a utilization window at the current time.
  void mark_window() { window_snapshot_ = total_busy_; }

 private:
  void start_next() {
    if (jobs_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    // One job is in service at a time, so it lives in `current_` and the
    // completion event captures only `this`.
    current_ = jobs_.pop_front();
    if (pool_) {
      // The thread stays busy while waiting for (and running on) a core.
      pool_->acquire(current_.duration, [this] { finish_current(); });
    } else {
      sim_.schedule_after(current_.duration, [this] { finish_current(); });
    }
  }

  void finish_current() {
    total_busy_ += current_.duration;
    busy_by_cat_[static_cast<size_t>(current_.cat)] += current_.duration;
    InlineFunction done = std::move(current_.done);
    if (done) done();
    start_next();
  }

  Simulation& sim_;
  std::string name_;
  CorePool* pool_ = nullptr;
  Ring<Job> jobs_;
  Job current_{};
  bool busy_ = false;
  Duration total_busy_ = 0;
  Duration window_snapshot_ = 0;
  std::array<Duration, static_cast<size_t>(CpuCategory::kCount)> busy_by_cat_{};
};

}  // namespace whale::sim

// Discrete event simulation kernel.
//
// The kernel is deliberately minimal: a monotonically advancing clock and a
// priority queue of (time, sequence, callback) events. Ties on time are
// broken by insertion order, so the simulation is fully deterministic.
// Everything else in the project (CPU servers, NICs, queues, the DSPS
// engine) is built as callbacks over this kernel.
//
// Layout: a binary heap holds small POD {time, first seq, head slot} keys,
// one per bucket of equal-time events; the callbacks live in a slab indexed
// by slot, linked into their bucket's FIFO or the freelist. Only the newest
// bucket takes appends, so an older bucket's events all precede a newer
// one's at the same time and buckets ordered by (time, first seq) fire in
// exact (time, seq) order, at one heap push and pop per burst. Sifting
// moves small PODs instead of callables, and steady-state scheduling
// performs zero allocations (slab and heap stay at their high-water mark).
// Callbacks are InlineFunction: captures up to 48 bytes live in the slot.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/inline_function.h"
#include "common/time.h"

namespace whale::sim {

class Simulation {
 public:
  using Callback = InlineFunction;

  Time now() const { return now_; }
  uint64_t events_processed() const { return processed_; }
  bool empty() const { return heap_.empty(); }

  // Templated so the callable is constructed directly in its slab slot —
  // no intermediate InlineFunction hop per event on the hot path.
  template <typename Fn>
  void schedule_at(Time t, Fn&& fn) {
    assert(t >= now_ && "cannot schedule in the past");
    uint32_t slot;
    if (free_head_ != kNilSlot) {
      slot = free_head_;
      free_head_ = slab_[slot].next;
      slab_[slot].fn.emplace(std::forward<Fn>(fn));
      slab_[slot].next = kNilSlot;
    } else {
      slot = static_cast<uint32_t>(slab_.size());
      slab_.push_back(Record{Callback(std::forward<Fn>(fn)), kNilSlot});
    }
    // The heap key packs (seq, slot) into one word: seq in the high 40
    // bits, slot in the low 24. seq values are unique and dominate the
    // high bits, so comparing packed keys orders ties by insertion exactly
    // like comparing seq alone. The bounds are astronomically above any
    // real run (2^40 events, 2^24 concurrently pending) but are checked so
    // an overflow can never silently reorder events.
    if (seq_ >= (uint64_t{1} << 40) || slot >= (uint32_t{1} << 24)) {
      std::abort();
    }
    if (t == newest_time_) {
      slab_[newest_tail_].next = slot;  // joins the newest bucket's FIFO
    } else {
      heap_.push_back(HeapEntry{t, (seq_ << 24) | slot});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
      newest_time_ = t;
    }
    newest_tail_ = slot;
    ++seq_;
  }

  template <typename Fn>
  void schedule_after(Duration d, Fn&& fn) {
    assert(d >= 0);
    schedule_at(now_ + d, std::forward<Fn>(fn));
  }

  // Runs the earliest event. Returns false if the queue was empty.
  bool step() {
    if (heap_.empty()) return false;
    pop_and_run();
    return true;
  }

  // Earliest pending event time (heap_.front() must exist).
  Time front_time() const { return heap_.front().time; }

  // Processes every event with time <= t, then advances the clock to t.
  // Each iteration reads heap_.front() exactly once and fully pops the
  // event before invoking its callback, so a throwing callback can never
  // leave a partially-popped heap behind.
  void run_until(Time t) {
    while (!heap_.empty() && heap_.front().time <= t) pop_and_run();
    if (now_ < t) now_ = t;
  }

  // Processes every event with time strictly < t, then advances the clock
  // to t. This is the window primitive of the parallel kernel: a partition
  // granted the window [now, t) executes exactly the events below t and
  // parks its clock on the boundary.
  void run_before(Time t) {
    while (!heap_.empty() && heap_.front().time < t) pop_and_run();
    if (now_ < t) now_ = t;
  }

  // Runs until no events remain (or `max_events` as a runaway guard).
  void run(uint64_t max_events = UINT64_MAX) {
    uint64_t n = 0;
    while (n < max_events && step()) ++n;
  }

#ifndef NDEBUG
  // Debug guard for the parallel kernel: a partition's clock must never
  // exceed the window it was granted. kNoLimit disarms the check.
  static constexpr Time kNoWindowLimit = INT64_MAX;
  void set_window_limit(Time t) { window_limit_ = t; }
#endif

 private:
  static constexpr uint32_t kNilSlot = UINT32_MAX;
  static constexpr Time kNoBucket = INT64_MIN;  // below any schedulable t

  // Pops and runs the front bucket's head event. Precondition:
  // !heap_.empty(). The pop is complete (heap, clock, slab slot all
  // consistent) before the callback is invoked, so an exception from the
  // callback unwinds cleanly.
  void pop_and_run() {
    HeapEntry& front = heap_.front();
    now_ = front.time;
#ifndef NDEBUG
    assert(now_ <= window_limit_ &&
           "partition clock exceeded its granted window");
#endif
    ++processed_;
    const uint32_t slot = static_cast<uint32_t>(front.key & 0xFFFFFFu);
    const uint32_t next = slab_[slot].next;
    if (next != kNilSlot) {
      front.key = (front.key >> 24 << 24) | next;  // same first seq: no sift
    } else {
      if (slot == newest_tail_) newest_time_ = kNoBucket;  // drained
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    // Move the callback out and recycle the slot BEFORE invoking: the
    // callback may schedule further events, growing (and reallocating)
    // the slab under our feet.
    Callback fn = std::move(slab_[slot].fn);
    slab_[slot].next = free_head_;
    free_head_ = slot;
    if (fn) fn();
  }

  // 16 bytes: two entries per sift move, four per cache line.
  struct HeapEntry {
    Time time;
    uint64_t key;  // (first seq << 24) | head slot
  };

  struct Record {
    Callback fn;
    uint32_t next;  // the bucket's next event while pending, else freelist
  };

  // Min-heap comparator: "a fires later than b" puts the earliest
  // (time, first seq) bucket at heap_.front(). The keys are unique, so this
  // is a strict total order and the pop sequence is fully deterministic.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.key > b.key;
    }
  };

  std::vector<HeapEntry> heap_;
  std::vector<Record> slab_;
  uint32_t free_head_ = kNilSlot;
  // The last-pushed bucket's time (kNoBucket once drained) and tail slot.
  Time newest_time_ = kNoBucket;
  uint32_t newest_tail_ = kNilSlot;
  Time now_ = 0;
  uint64_t seq_ = 0;
  uint64_t processed_ = 0;
#ifndef NDEBUG
  Time window_limit_ = kNoWindowLimit;
#endif
};

}  // namespace whale::sim

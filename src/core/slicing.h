// Stream slicing (Sec. 4): per-channel transmit buffering.
//
// The sender accumulates serialized tuples per RDMA channel; when the
// buffer reaches MMS (Max Memory Size) bytes it is assembled into a work
// request and posted, and a WTL (Wait Time Limit) timer bounds how long the
// earliest tuple may wait when traffic is light. The timer resets whenever
// a work request is handed to the RNIC. Figs. 11/12 sweep MMS and WTL.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "common/time.h"
#include "rdma/verbs.h"
#include "sim/simulation.h"

namespace whale::core {

class SlicingBuffer {
 public:
  // Slices the stream onto `qp`. No work request exceeds the qp's READ
  // ring: a flush larger than the ring posts as several, each at least one
  // packet. A single packet larger than the ring can never be posted and
  // blocks the channel for good.
  SlicingBuffer(sim::Simulation& sim, uint64_t mms, Duration wtl,
                rdma::QueuePair& qp)
      : sim_(sim), mms_(mms), wtl_(wtl), qp_(qp) {}

  // Timer and ring-space callbacks hold `this`.
  SlicingBuffer(const SlicingBuffer&) = delete;
  SlicingBuffer& operator=(const SlicingBuffer&) = delete;

  void add(rdma::Packet p) {
    bytes_ += p.size();
    if (buf_.empty()) arm_timer();
    buf_.push_back(std::move(p));
    if (bytes_ >= mms_) try_flush();
  }

  // True while the ring rejected a work request and we are waiting for
  // ring space; the send loop must stall instead of feeding more.
  bool blocked() const { return blocked_; }
  void on_unblock(std::function<void()> fn) {
    unblock_waiters_.push_back(std::move(fn));
  }

  size_t buffered_tuples() const { return buf_.size(); }
  uint64_t buffered_bytes() const { return bytes_; }
  uint64_t flushes() const { return flushes_; }
  uint64_t timer_flushes() const { return timer_flushes_; }

 private:
  void arm_timer() {
    const uint64_t gen = ++timer_gen_;
    sim_.schedule_after(wtl_, [this, gen] {
      if (gen != timer_gen_ || buf_.empty()) return;
      ++timer_flushes_;
      try_flush();
    });
  }

  void try_flush() {
    // The ring is re-created by a QP reset; read its size per flush.
    const rdma::RingMemoryRegion* ring = qp_.ring();
    const uint64_t max_wr =
        ring ? ring->capacity() : std::numeric_limits<uint64_t>::max();
    while (!buf_.empty() && !blocked_) {
      ++timer_gen_;  // a consumed work request resets the timer
      // The whole buffer when it fits the ring, else its longest prefix
      // that does.
      size_t n = buf_.size();
      uint64_t wr_bytes = bytes_;
      if (bytes_ > max_wr) {
        n = 0;
        wr_bytes = 0;
        while (n < buf_.size() &&
               (n == 0 || wr_bytes + buf_[n].size() <= max_wr)) {
          wr_bytes += buf_[n++].size();
        }
      }
      rdma::Bundle wr;
      if (n == buf_.size()) {
        wr.swap(buf_);
      } else {
        wr.assign(std::make_move_iterator(buf_.begin()),
                  std::make_move_iterator(buf_.begin() + n));
        buf_.erase(buf_.begin(), buf_.begin() + n);
      }
      if (qp_.transmit(wr)) {
        bytes_ -= wr_bytes;
        ++flushes_;
        continue;
      }
      // Ring full: the QP rejected the work request without consuming it;
      // put it back in front and retry when space is released.
      if (buf_.empty()) {
        buf_.swap(wr);
      } else {
        buf_.insert(buf_.begin(), std::make_move_iterator(wr.begin()),
                    std::make_move_iterator(wr.end()));
      }
      blocked_ = true;
      qp_.wait_for_space([this] {
        blocked_ = false;
        try_flush();
        if (!blocked_) {
          auto waiters = std::move(unblock_waiters_);
          unblock_waiters_.clear();
          for (auto& fn : waiters) fn();
        }
      });
    }
  }

  sim::Simulation& sim_;
  uint64_t mms_;
  Duration wtl_;
  rdma::QueuePair& qp_;

  rdma::Bundle buf_;
  uint64_t bytes_ = 0;
  bool blocked_ = false;
  uint64_t timer_gen_ = 0;
  uint64_t flushes_ = 0;
  uint64_t timer_flushes_ = 0;
  std::vector<std::function<void()>> unblock_waiters_;
};

}  // namespace whale::core

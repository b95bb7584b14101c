// Verbs-style RDMA API over the simulated fabric.
//
// A QueuePair connects two endpoints (node + the CPU server of the comm
// thread that posts/handles work on that node) and implements the three
// verb disciplines Whale distinguishes (Sec. 4 / Figs. 29-32):
//
//  - kSendRecv  two-sided SEND/RECV. The initiator pays a post cost, the
//               target CPU is scheduled per message to consume the receive
//               completion and repost a buffer.
//  - kWrite     one-sided WRITE. Initiator post cost; the target CPU only
//               pays a small completion-detection cost (polling a flag).
//  - kRead      one-sided READ against the producer's ring memory region.
//               The producer enqueues payloads into the ring with *no*
//               per-message verb cost; the consumer runs a fetch loop that
//               READs batches sequentially. This is the discipline Whale
//               uses for stream data (DiffVerbs policy).
//
// Payload bytes are real (shared, reference-counted byte vectors), so relay
// nodes forward without re-serialization, exactly like the zero-copy path
// in the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/buffer.h"
#include "common/time.h"
#include "net/cost_model.h"
#include "net/fabric.h"
#include "rdma/ring_buffer.h"
#include "sim/cpu.h"

namespace whale::rdma {

// A serialized message in flight. `bytes` is a refcounted pooled buffer so
// that multicast relaying and local dispatch never copy payloads.
struct Packet {
  Buffer bytes;
  Time created = 0;   // stamped by the producer, for end-to-end latency
  uint64_t id = 0;    // opaque correlation id (tuple / batch id)
  // Simulation-side metadata (not wire bytes): producing task for barrier
  // alignment, barrier flag so loss accounting can skip epoch barriers.
  int32_t src_task = -1;
  bool barrier = false;
  uint64_t gen = 0;  // dataflow incarnation at send time (recovery fencing)

  uint64_t size() const { return bytes.size(); }
};

using Bundle = std::vector<Packet>;

inline uint64_t bundle_bytes(const Bundle& b) {
  uint64_t n = 0;
  for (const auto& p : b) n += p.size();
  return n;
}

// Packets of `b` that carry data: loss counters skip epoch barriers.
inline uint64_t data_packets(const Bundle& b) {
  return std::count_if(b.begin(), b.end(),
                       [](const Packet& p) { return !p.barrier; });
}

enum class Verb : uint8_t { kSendRecv = 0, kWrite = 1, kRead = 2 };

inline const char* to_string(Verb v) {
  switch (v) {
    case Verb::kSendRecv: return "send/recv";
    case Verb::kWrite: return "write";
    case Verb::kRead: return "read";
  }
  return "?";
}

struct Completion {
  Verb verb;
  uint64_t wr_id;
  Time time;
  uint64_t bytes;
};

// Minimal completion queue: the simulation delivers completions through
// callbacks, but the CQ keeps the records so tests and monitors can poll.
class CompletionQueue {
 public:
  void push(const Completion& c) {
    entries_.push_back(c);
    ++total_;
  }

  std::optional<Completion> poll() {
    if (entries_.empty()) return std::nullopt;
    Completion c = entries_.front();
    entries_.pop_front();
    return c;
  }

  size_t depth() const { return entries_.size(); }
  uint64_t total() const { return total_; }

 private:
  std::deque<Completion> entries_;
  uint64_t total_ = 0;
};

// One side of a QueuePair: the node it lives on and the CPU server of the
// thread that posts work requests / handles completions there.
struct QpEndpoint {
  int node = 0;
  sim::CpuServer* cpu = nullptr;
};

struct QpConfig {
  // Ring memory region capacity (READ discipline only).
  uint64_t ring_capacity = 4 * 1024 * 1024;
  // Max bytes one READ fetches (the consumer batches sequential messages).
  uint64_t read_batch_max = 64 * 1024;
};

class QueuePair {
 public:
  QueuePair(net::Fabric& fabric, const net::CostModel& cost, Verb verb,
            QpConfig config, QpEndpoint local, QpEndpoint remote);

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  // Delivery callback on the remote side, one call per packet.
  void set_recv_handler(std::function<void(Packet)> fn) {
    recv_handler_ = std::move(fn);
  }

  // Transmits a bundle (one work request / one ring append), consuming it
  // on success. Returns false leaving the bundle untouched if the
  // READ-mode ring cannot accept it; the caller should register
  // wait_for_space and retry. `on_posted` fires once the local side has
  // finished its part (post cost paid / ring append done).
  bool transmit(Bundle& bundle, std::function<void()> on_posted = nullptr);

  // Convenience overload for single-shot callers.
  bool transmit(Bundle&& bundle, std::function<void()> on_posted = nullptr) {
    Bundle b = std::move(bundle);
    return transmit(b, std::move(on_posted));
  }

  // Fires once, the next time ring space is released (READ mode).
  void wait_for_space(std::function<void()> fn) {
    space_waiters_.push_back(std::move(fn));
  }

  // Fault recovery: the peer died and the QP went to error state. Drops
  // every buffered/in-flight message (counted in packets_lost), re-creates
  // the ring, cancels the outstanding READ (stale completions are fenced
  // by an epoch counter), and releases blocked producers so they retry
  // against the fresh ring. Models tearing the QP down and re-creating it.
  void reset();

  Verb verb() const { return verb_; }
  const QpEndpoint& local() const { return local_; }
  const QpEndpoint& remote() const { return remote_; }
  CompletionQueue& send_cq() { return send_cq_; }
  const RingMemoryRegion* ring() const { return ring_ ? ring_.get() : nullptr; }

  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t packets_delivered() const { return packets_delivered_; }
  uint64_t reads_issued() const { return reads_issued_; }
  // Data packets dropped by reset(); barriers are not counted.
  uint64_t packets_lost() const { return packets_lost_; }
  uint64_t resets() const { return resets_; }
  // Data packets handed to the fabric but dropped at its entry (dead
  // endpoint / partitioned link) — they left this QP's books without being
  // delivered or counted in packets_lost. Barriers are not counted.
  uint64_t fabric_drops() const { return fabric_drops_; }
  // Packets buffered on the producer side awaiting a READ fetch. Includes
  // packets wedged behind a READ request descriptor the fabric dropped
  // (the channel stays blocked until reset() re-arms it).
  size_t packets_pending() const;
  // Fetch-chain stages cancelled by the epoch fence: a reset() raced an
  // in-flight READ and the late completion discarded itself instead of
  // touching the re-created ring.
  uint64_t reads_cancelled() const { return reads_cancelled_; }
  // True while the channel is wedged: a fabric drop ate the READ request
  // descriptor or the READ data mid-flight, so the fetch loop can never
  // resume until reset() re-arms it.
  bool wedged() const { return wedged_; }
  // Producer-side packets stuck behind a wedged fetch loop (0 when the
  // channel is healthy — pending packets on a live channel will drain).
  size_t wedged_packets() const { return wedged_ ? packets_pending() : 0; }

 private:
  void deliver(Packet p);
  void maybe_fetch();     // consumer-side READ loop
  void release_space();

  net::Fabric& fabric_;
  const net::CostModel& cost_;
  Verb verb_;
  QpConfig config_;
  QpEndpoint local_;
  QpEndpoint remote_;

  std::function<void(Packet)> recv_handler_;
  CompletionQueue send_cq_;

  // READ discipline state: producer-side ring + FIFO of posted fetch
  // units. Each transmit() posts ONE contiguous ring region (one sliced
  // work request); the consumer READs whole units sequentially, batching
  // consecutive units up to read_batch_max.
  std::unique_ptr<RingMemoryRegion> ring_;
  std::deque<Bundle> pending_;
  bool read_outstanding_ = false;
  std::vector<std::function<void()>> space_waiters_;
  // Incremented by reset(); in-flight fetch callbacks capture the epoch
  // they were issued under and discard themselves if it has moved on, so a
  // completion raced by a reset can never touch the re-created ring.
  uint64_t epoch_ = 0;

  uint64_t packets_sent_ = 0;
  uint64_t packets_delivered_ = 0;
  uint64_t reads_issued_ = 0;
  uint64_t packets_lost_ = 0;
  uint64_t resets_ = 0;
  uint64_t fabric_drops_ = 0;
  uint64_t reads_cancelled_ = 0;
  bool wedged_ = false;
  uint64_t next_wr_id_ = 1;
};

}  // namespace whale::rdma

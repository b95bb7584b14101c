#include "rdma/verbs.h"

#include <cassert>
#include <utility>

#include "obs/trace.h"

namespace whale::rdma {

namespace {
// Size of the READ request descriptor on the wire.
constexpr uint64_t kReadRequestBytes = 16;
}  // namespace

QueuePair::QueuePair(net::Fabric& fabric, const net::CostModel& cost,
                     Verb verb, QpConfig config, QpEndpoint local,
                     QpEndpoint remote)
    : fabric_(fabric),
      cost_(cost),
      verb_(verb),
      config_(config),
      local_(local),
      remote_(remote) {
  assert(local_.cpu != nullptr && remote_.cpu != nullptr);
  if (verb_ == Verb::kRead) {
    ring_ = std::make_unique<RingMemoryRegion>(config_.ring_capacity);
  }
}

bool QueuePair::transmit(Bundle& bundle, std::function<void()> on_posted) {
  const uint64_t bytes = bundle_bytes(bundle);
  if (verb_ == Verb::kRead) {
    // Producer side: append into the ring memory region. Zero-copy — the
    // serialized bytes already live in registered memory, so there is no
    // per-message verb cost for the producer. Ring-full is the blocking
    // signal that propagates back into the transfer queue.
    if (!ring_->produce(bytes)) return false;
    packets_sent_ += bundle.size();
    pending_.push_back(std::move(bundle));
    bundle.clear();
    if (on_posted) fabric_.simulation().schedule_after(0, std::move(on_posted));
    maybe_fetch();
    return true;
  }

  // SEND / WRITE: the local comm thread posts one work request.
  packets_sent_ += bundle.size();
  const uint64_t wr_id = next_wr_id_++;
  Bundle owned = std::move(bundle);
  bundle.clear();
  local_.cpu->execute(
      cost_.rdma_post, sim::CpuCategory::kRdmaPost,
      [this, wr_id, bytes, bundle = std::move(owned),
       on_posted = std::move(on_posted)]() mutable {
        if (on_posted) on_posted();
        const uint64_t n_data = data_packets(bundle);
        const bool sent = fabric_.transmit(
            net::Transport::kRdma, local_.node, remote_.node, bytes,
            [this, wr_id, bytes, bundle = std::move(bundle)]() mutable {
              send_cq_.push(Completion{verb_, wr_id,
                                       fabric_.simulation().now(), bytes});
              const Duration recv_cpu =
                  verb_ == Verb::kSendRecv
                      ? cost_.rdma_twosided_recv_cpu
                      : cost_.rdma_write_completion_cpu;
              remote_.cpu->execute(
                  recv_cpu, sim::CpuCategory::kRdmaPost,
                  [this, bundle = std::move(bundle)]() mutable {
                    for (auto& p : bundle) deliver(std::move(p));
                  });
            },
            cost_.rnic_per_wr);
        if (!sent) fabric_drops_ += n_data;
      });
  return true;
}

void QueuePair::maybe_fetch() {
  if (read_outstanding_ || pending_.empty()) return;
  read_outstanding_ = true;
  ++reads_issued_;
  // Every stage of the fetch chain is fenced by the epoch it was issued
  // under: a reset() in between (peer crash) invalidates the chain, so a
  // late completion cannot consume from the re-created ring.
  const uint64_t epoch = epoch_;
  // The consumer's comm thread posts the READ work request...
  remote_.cpu->execute(cost_.rdma_post, sim::CpuCategory::kRdmaPost,
                       [this, epoch] {
    if (epoch != epoch_) {
      ++reads_cancelled_;
      return;
    }
    // ...the request descriptor crosses the wire to the producer's RNIC...
    const bool req_sent = fabric_.transmit(
        net::Transport::kRdma, remote_.node, local_.node,
        kReadRequestBytes,
        [this, epoch] {
          if (epoch != epoch_) {
            ++reads_cancelled_;
            return;
          }
          // ...which DMAs whole posted units back without any producer CPU
          // involvement. Units are contiguous in the ring, so consecutive
          // ones coalesce into a single READ up to read_batch_max.
          Bundle batch;
          uint64_t batch_bytes = 0;
          while (!pending_.empty()) {
            const uint64_t sz = bundle_bytes(pending_.front());
            if (!batch.empty() && batch_bytes + sz > config_.read_batch_max)
              break;
            batch_bytes += sz;
            for (auto& p : pending_.front()) batch.push_back(std::move(p));
            pending_.pop_front();
          }
          const uint64_t wr_id = next_wr_id_++;
          const uint64_t n_data = data_packets(batch);
          const bool sent = fabric_.transmit(
              net::Transport::kRdma, local_.node, remote_.node, batch_bytes,
              [this, epoch, wr_id, batch_bytes,
               batch = std::move(batch)]() mutable {
                if (epoch != epoch_) {
                  ++reads_cancelled_;
                  return;
                }
                send_cq_.push(Completion{Verb::kRead, wr_id,
                                         fabric_.simulation().now(),
                                         batch_bytes});
                // The ring space is reusable once the RNIC has read it.
                ring_->consume(batch_bytes);
                release_space();
                for (auto& p : batch) deliver(std::move(p));
                read_outstanding_ = false;
                maybe_fetch();
              },
              cost_.rnic_per_wr);
          // Dropped READ data: the batch's packets were already moved out of
          // the ring bookkeeping, so they are gone for good (and, like any
          // fault mid-READ, the channel stays wedged until reset()).
          if (!sent) {
            fabric_drops_ += n_data;
            wedged_ = true;
          }
        },
        cost_.rnic_per_wr);
    // A dropped request descriptor wedges the channel the same way: the
    // fetch loop is waiting for a completion that can never arrive.
    if (!req_sent) wedged_ = true;
  });
}

size_t QueuePair::packets_pending() const {
  size_t n = 0;
  for (const auto& b : pending_) n += b.size();
  return n;
}

void QueuePair::reset() {
  ++resets_;
  ++epoch_;  // fence: any in-flight fetch stage sees a stale epoch and bails
  for (const auto& b : pending_) packets_lost_ += data_packets(b);
  pending_.clear();
  read_outstanding_ = false;
  wedged_ = false;
  if (verb_ == Verb::kRead) {
    ring_ = std::make_unique<RingMemoryRegion>(config_.ring_capacity);
    // Producers blocked on ring-full can retry against the fresh ring.
    release_space();
  }
}

void QueuePair::release_space() {
  if (space_waiters_.empty()) return;
  std::vector<std::function<void()>> waiters;
  waiters.swap(space_waiters_);
  for (auto& fn : waiters) fn();
}

void QueuePair::deliver(Packet p) {
  ++packets_delivered_;
  // One span per delivered packet covering creation (serialization on the
  // producer) through RNIC delivery — ring wait, READ batching and wire
  // time included. The tracer lives on the engine; the fabric carries the
  // pointer down here.
  obs::Tracer* tr = fabric_.tracer();
  if (tr && tr->sampled(p.id)) {
    const Time now = fabric_.simulation().now();
    tr->complete("rdma_transfer", "net", remote_.node, obs::kLaneNet,
                 p.created, now - p.created, p.id, "bytes",
                 static_cast<double>(p.size()));
  }
  if (recv_handler_) recv_handler_(std::move(p));
}

}  // namespace whale::rdma

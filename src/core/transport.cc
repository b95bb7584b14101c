#include "core/transport.h"

namespace whale::core {

Transport::Transport(const EngineConfig& cfg, net::Fabric& fabric,
                     const CpuFactory& make_cpu, RecvHook on_recv,
                     LossHook on_loss)
    : cfg_(cfg),
      fabric_(fabric),
      on_recv_(std::move(on_recv)),
      on_loss_(std::move(on_loss)),
      workers_(static_cast<size_t>(cfg.cluster.num_nodes)) {
  const size_t n = workers_.size();
  for (size_t i = 0; i < n; ++i) {
    Worker& w = workers_[i];
    w.id = static_cast<int>(i);
    w.node = w.id;  // one worker process per node (paper setup)
    w.send_cpu = make_cpu(w.node, "w" + std::to_string(i) + ".send");
    w.recv_cpu = make_cpu(w.node, "w" + std::to_string(i) + ".recv");
    w.queue = std::make_unique<sim::BoundedQueue<OutMsg>>(
        cfg.transfer_queue_capacity);
    w.data_qps.resize(n);
    w.ctrl_qps.resize(n);
    w.slicers.resize(n);
    Worker* raw = &w;
    w.queue->set_on_item([this, raw] { pump(*raw); });
  }
}

std::pair<Duration, sim::CpuCategory> Transport::send_cost(
    uint64_t bytes) const {
  switch (cfg_.variant.transport) {
    case TransportMode::kTcp:
      // Multi-layer protocol processing + kernel copy per message.
      return {cfg_.cost.tcp_send_time(bytes), sim::CpuCategory::kProtocol};
    case TransportMode::kRdmaSendRecv:
      return {cfg_.cost.rdma_post, sim::CpuCategory::kRdmaPost};
    case TransportMode::kRdmaOptimized:
    default:
      // Zero-copy append towards the sliced channel.
      return {cfg_.cost.local_enqueue, sim::CpuCategory::kRdmaPost};
  }
}

// ---------------------------------------------------------------------------
// Send loop
// ---------------------------------------------------------------------------

void Transport::push(int w, OutMsg msg, InlineFunction done) {
  Worker& wr = workers_[idx(w)];
  if (!fabric_.node_up(wr.node)) {
    // The producing worker died (possibly while blocked on a full queue):
    // the message is lost but the executor chain must unwind.
    if (!msg.barrier) on_loss_();
    done();
    return;
  }
  if (wr.queue->try_push(msg)) {
    pump(wr);
    done();
    return;
  }
  // Queue full: Storm-style backpressure — the producer stalls until the
  // send loop frees a slot.
  wr.queue->wait_for_space(
      [this, w, msg = std::move(msg), done = std::move(done)]() mutable {
        push(w, std::move(msg), std::move(done));
      });
}

void Transport::pump(Worker& w) {
  if (w.sending || w.paused || w.pump_waiting) return;
  if (!fabric_.node_up(w.node) || w.stalled) return;
  if (w.queue->empty()) return;

  // Under the optimized RDMA transport, a blocked slicing buffer (ring
  // full) must stall the send loop so backpressure reaches the executors.
  if (cfg_.variant.transport == TransportMode::kRdmaOptimized &&
      !w.queue->front().relay) {
    auto& sl = slicer(w.id, w.queue->front().dst_worker);
    if (sl.blocked()) {
      w.pump_waiting = true;
      Worker* wr = &w;
      sl.on_unblock([this, wr] {
        wr->pump_waiting = false;
        pump(*wr);
      });
      return;
    }
  }

  // Claim the send slot BEFORE popping: try_pop releases a blocked
  // producer synchronously, and that producer may re-enter pump().
  w.sending = true;
  auto msg = w.queue->try_pop();
  if (!msg) {
    w.sending = false;
    return;
  }
  transmit(w, std::move(*msg));
}

void Transport::transmit(Worker& w, OutMsg msg) {
  Worker* wr = &w;
  auto resume = [this, wr] {
    wr->sending = false;
    pump(*wr);
  };
  const int dst = msg.dst_worker;
  if (!fabric_.node_up(workers_[idx(dst)].node)) {
    // The connection to a crashed peer is in error state: the send fails
    // and the message is dropped (the ack timeout recovers the root).
    if (!msg.barrier) on_loss_();
    resume();
    return;
  }
  const uint64_t sz = msg.bytes->size();
  rdma::Packet pkt{std::move(msg.bytes), msg.enqueued, msg.root_id};
  pkt.src_task = msg.src_task;
  pkt.barrier = msg.barrier;
  pkt.gen = msg.gen;

  switch (cfg_.variant.transport) {
    case TransportMode::kTcp: {
      // Protocol processing was charged to the producing executor
      // (send_cost); the send thread only hands the message to the
      // kernel/NIC. Receive-side protocol runs on the recv thread.
      w.send_cpu->execute(
          cfg_.cost.local_enqueue, sim::CpuCategory::kDispatch,
          [this, wr, dst, sz, pkt = std::move(pkt), resume]() mutable {
            Worker* draw = &workers_[idx(dst)];
            const int src = wr->id;
            const bool bar = pkt.barrier;
            const bool sent = fabric_.transmit(
                net::Transport::kTcp, wr->node, draw->node, sz,
                [this, draw, sz, src, pkt = std::move(pkt)]() mutable {
                  draw->recv_cpu->execute(
                      cfg_.cost.tcp_recv_time(sz), sim::CpuCategory::kProtocol,
                      [this, draw, src, pkt = std::move(pkt)]() mutable {
                        deliver(draw->id, std::move(pkt), src);
                      });
                });
            // Dropped at fabric entry (partition / dead link): the message
            // vanished without a delivery callback.
            if (!sent && !bar) on_loss_();
            resume();
          });
      break;
    }
    case TransportMode::kRdmaSendRecv: {
      rdma::Bundle b;
      b.push_back(std::move(pkt));
      data_qp(w.id, dst).transmit(std::move(b), resume);
      break;
    }
    case TransportMode::kRdmaOptimized: {
      // Hand the packet to the channel on the send thread at a negligible
      // enqueue cost; the RNIC does the rest. Relayed bundles were
      // assembled upstream and go straight into the ring; ring-full stalls
      // the send loop until the consumer's READ releases space.
      const bool relay = msg.relay;
      w.send_cpu->execute(
          cfg_.cost.local_enqueue, sim::CpuCategory::kDispatch,
          [this, wr, dst, relay, pkt = std::move(pkt), resume]() mutable {
            if (!relay) {
              slicer(wr->id, dst).add(std::move(pkt));
              resume();
              return;
            }
            rdma::Bundle b;
            b.push_back(std::move(pkt));
            post_relay(data_qp(wr->id, dst), std::move(b), resume);
          });
      break;
    }
  }
}

void Transport::post_relay(rdma::QueuePair& qp, rdma::Bundle b,
                           std::function<void()> posted) {
  if (qp.transmit(b)) {
    posted();
    return;
  }
  qp.wait_for_space([this, &qp, b = std::move(b),
                     posted = std::move(posted)]() mutable {
    post_relay(qp, std::move(b), std::move(posted));
  });
}

void Transport::send_control(int src, int dst, Bytes bytes, uint64_t change) {
  rdma::Packet pkt{std::move(bytes), fabric_.simulation().now(), 0};
  pkt.gen = change;
  if (cfg_.variant.rdma()) {
    // Control always uses SEND/RECV (Sec. 4).
    qp(workers_[idx(src)].ctrl_qps, src, dst, rdma::Verb::kSendRecv)
        .transmit(rdma::Bundle{std::move(pkt)});
    return;
  }
  const size_t size = pkt.bytes->size();
  fabric_.transmit(net::Transport::kTcp, workers_[idx(src)].node,
                   workers_[idx(dst)].node, size,
                   [this, dst, src, pkt = std::move(pkt)]() mutable {
                     deliver(dst, std::move(pkt), src);
                   });
}

// ---------------------------------------------------------------------------
// Receive path and channels
// ---------------------------------------------------------------------------

void Transport::deliver(int dst, rdma::Packet pkt, int src) {
  if (!fabric_.node_up(workers_[idx(dst)].node)) {
    // In-flight delivery racing a crash: the process it was addressed to
    // no longer exists. Only data is lost: barriers vanish (their epoch
    // aborts) and a missing control packet or ACK is a protocol event.
    if (pkt.barrier) return;
    const MsgKind k = peek(*pkt.bytes).kind;
    if (k != MsgKind::kControl && k != MsgKind::kAck) on_loss_();
    return;
  }
  on_recv_(dst, std::move(pkt), src);
}

rdma::QueuePair& Transport::qp(
    std::vector<std::unique_ptr<rdma::QueuePair>>& qps, int src, int dst,
    rdma::Verb verb) {
  auto& slot = qps[idx(dst)];
  if (!slot) {
    const Worker& w = workers_[idx(src)];
    const Worker& dw = workers_[idx(dst)];
    slot = std::make_unique<rdma::QueuePair>(
        fabric_, cfg_.cost, verb, cfg_.qp,
        rdma::QpEndpoint{w.node, w.send_cpu.get()},
        rdma::QpEndpoint{dw.node, dw.recv_cpu.get()});
    slot->set_recv_handler([this, dst, src](rdma::Packet p) {
      deliver(dst, std::move(p), src);
    });
  }
  return *slot;
}

rdma::QueuePair& Transport::data_qp(int src, int dst) {
  return qp(workers_[idx(src)].data_qps, src, dst,
            cfg_.variant.transport == TransportMode::kRdmaOptimized
                ? rdma::Verb::kRead
                : rdma::Verb::kSendRecv);
}

SlicingBuffer& Transport::slicer(int src, int dst) {
  auto& slot = workers_[idx(src)].slicers[idx(dst)];
  if (!slot) {
    slot = std::make_unique<SlicingBuffer>(fabric_.simulation(),
                                           cfg_.mms_bytes, cfg_.wtl,
                                           data_qp(src, dst));
  }
  return *slot;
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

void Transport::crash(int node) {
  Worker& w = workers_[idx(node)];
  w.sending = false;
  w.pump_waiting = false;
  w.stalled = false;
  // The process is gone: everything queued inside it is lost. Barrier
  // losses abort their epoch instead of counting as data.
  while (auto m = w.queue->try_pop()) {
    if (!m->barrier) on_loss_();
  }
}

void Transport::reset_qps(int node) {
  // Buffered ring contents are lost, wedged READ fetch loops are released,
  // and blocked producers retry against empty rings.
  for (Worker& w : workers_) {
    for (auto* qps : {&w.data_qps, &w.ctrl_qps}) {
      if (w.id == node) {
        for (auto& q : *qps) {
          if (q) q->reset();
        }
      } else if (auto& q = (*qps)[idx(node)]) {
        q->reset();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

uint64_t Transport::ring_bytes(int w) const {
  uint64_t b = 0;
  for (const auto& q : workers_[idx(w)].data_qps) {
    if (q && q->ring()) b += q->ring()->used();
  }
  return b;
}

Transport::Stats Transport::stats() const {
  Stats s;
  for (const Worker& w : workers_) {
    s.inflight += w.queue->size();
    for (size_t dst = 0; dst < workers_.size(); ++dst) {
      if (const auto& q = w.data_qps[dst]) {
        s.data_packets_lost += q->packets_lost();
        s.fabric_drops += q->fabric_drops();
        s.inflight += q->packets_pending();
      }
      if (const auto& sl = w.slicers[dst]) s.inflight += sl->buffered_tuples();
      for (const auto* q : {w.data_qps[dst].get(), w.ctrl_qps[dst].get()}) {
        if (!q) continue;
        s.reads_cancelled += q->reads_cancelled();
        s.wedged_packets += q->wedged_packets();
      }
    }
  }
  return s;
}

}  // namespace whale::core

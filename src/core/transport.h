// Worker transport (Sec. 4): what carries serialized messages between the
// worker processes of the engine.
//
// Every worker (one per node) owns a send thread and a receive thread (one
// CPU server each), a bounded transfer queue (capacity Q) that its
// executors feed, and the send loop that drains that queue into the
// transport of the run's variant:
//  - kernel TCP: protocol cost on both ends, no QPs;
//  - naive RDMA SEND/RECV: one work request per message;
//  - Whale's optimized RDMA: one-sided READ against a ring memory region,
//    with stream slicing (MMS/WTL) batching each channel into work
//    requests no larger than its ring. Relayed multicast bundles skip the
//    slicer (they arrive already batched).
// Control messages ride a SEND/RECV control QP on RDMA variants and TCP
// otherwise. Data and control QPs are created per (src, dst) worker pair
// on first use.
//
// The transport knows nothing of tuples or tasks: the engine hands it
// framed messages and gets packets back through the receive hook. Node
// liveness is read from the fabric (Fabric::node_up), which the engine
// owns.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/time.h"
#include "core/config.h"
#include "core/message.h"
#include "core/slicing.h"
#include "net/fabric.h"
#include "rdma/verbs.h"
#include "sim/cpu.h"
#include "sim/queue.h"

namespace whale::core {

// An outbound message waiting in a worker's transfer queue.
struct OutMsg {
  Bytes bytes;
  int dst_worker = 0;
  Time enqueued = 0;
  uint64_t root_id = 0;  // 0 = untracked
  // Checkpointing metadata (simulation-side; not wire bytes). src_task
  // identifies the producing executor — barrier alignment is per input
  // channel (stream, upstream task). Barriers are never counted as data
  // losses; a lost barrier just aborts its epoch at the next tick.
  int32_t src_task = -1;
  bool barrier = false;
  // Dataflow incarnation at send time. A recovery bumps the engine's
  // generation; copies still on the wire from the previous incarnation
  // are dropped at processing time (their roots are replayed from the
  // epoch log), like a restarted system severing its old connections.
  uint64_t gen = 0;
  // Relayed multicast traffic arrives already batched (the relay READ
  // fetched a full bundle) and is forwarded immediately, bypassing the
  // slicing buffer — re-batching per hop would add WTL per tree layer.
  bool relay = false;
};

class Transport {
 public:
  // A packet from worker `src` reached live worker `dst` (after the
  // receive thread's protocol cost on TCP).
  using RecvHook = std::function<void(int dst, rdma::Packet pkt, int src)>;
  // The transport dropped a data message (never a barrier, control packet
  // or ACK) that no QP counts: a dead sender or receiver, a TCP message
  // refused at fabric entry, a crashed worker's transfer queue. QP reset
  // losses and QP fabric drops are in stats() instead.
  using LossHook = std::function<void()>;
  // Builds the CPU server of a worker thread on `node`.
  using CpuFactory =
      std::function<std::unique_ptr<sim::CpuServer>(int node, std::string)>;

  // One worker per node of cfg.cluster.
  Transport(const EngineConfig& cfg, net::Fabric& fabric,
            const CpuFactory& make_cpu, RecvHook on_recv, LossHook on_loss);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Per-message send-side cost charged to the PRODUCING EXECUTOR (the
  // paper attributes packet processing to the upstream instance, Fig. 2d).
  std::pair<Duration, sim::CpuCategory> send_cost(uint64_t bytes) const;

  // Queues `msg` on worker w's transfer queue, waiting for space when it
  // is full (Storm-style backpressure); `done` runs once the message is
  // queued, or dropped because w is down.
  void push(int w, OutMsg msg, InlineFunction done);
  // Ships a control-plane message between workers. `change` rides along
  // as simulation-side packet metadata (Packet::gen), not wire bytes.
  void send_control(int src, int dst, Bytes bytes, uint64_t change);

  // A paused (tree change, Thm. 4) or stalled (relay-stall fault) worker's
  // send loop holds its queue. Releasing either leaves the loop idle until
  // pump() or the next push.
  void set_paused(int w, bool paused) { workers_[idx(w)].paused = paused; }
  void set_stalled(int w, bool stalled) { workers_[idx(w)].stalled = stalled; }
  // Restarts w's send loop if it is idle and has work.
  void pump(int w) { pump(workers_[idx(w)]); }

  // The node's worker died (the caller has marked it down on the fabric):
  // its send loop stops and its transfer queue is lost.
  void crash(int node);
  // Tears down every QP with an endpoint on `node`, on both sides (crash,
  // and restart as a fresh process).
  void reset_qps(int node);

  // The receive thread of worker w (dispatch and recovery reads run there).
  sim::CpuServer& recv_cpu(int w) { return *workers_[idx(w)].recv_cpu; }

  // --- stats ---------------------------------------------------------------
  size_t queue_depth(int w) const { return workers_[idx(w)].queue->size(); }
  // Bytes held in the READ rings of w's outgoing data QPs.
  uint64_t ring_bytes(int w) const;
  struct Stats {
    uint64_t data_packets_lost = 0;  // QP reset losses, data QPs only
    uint64_t fabric_drops = 0;       // data-QP packets dropped at fabric entry
    // Messages still inside the transport: transfer queues, data-QP rings
    // and slicing buffers.
    uint64_t inflight = 0;
    uint64_t reads_cancelled = 0;  // data + control QPs
    uint64_t wedged_packets = 0;   // data + control QPs
  };
  Stats stats() const;

 private:
  struct Worker {
    int id = 0, node = 0;
    std::unique_ptr<sim::CpuServer> send_cpu;
    std::unique_ptr<sim::CpuServer> recv_cpu;
    std::unique_ptr<sim::BoundedQueue<OutMsg>> queue;
    bool sending = false;       // send loop holds one message in flight
    bool paused = false;
    bool stalled = false;
    bool pump_waiting = false;  // subscribed to a blocked slicer
    // Indexed by destination worker; created lazily.
    std::vector<std::unique_ptr<rdma::QueuePair>> data_qps;
    std::vector<std::unique_ptr<rdma::QueuePair>> ctrl_qps;
    std::vector<std::unique_ptr<SlicingBuffer>> slicers;
  };

  static size_t idx(int w) { return static_cast<size_t>(w); }
  void pump(Worker& w);
  void transmit(Worker& w, OutMsg msg);
  // Posts a relayed bundle straight into the ring, retrying on ring space.
  void post_relay(rdma::QueuePair& qp, rdma::Bundle b,
                  std::function<void()> posted);
  // A packet reached worker `dst`: counted lost if it is down, else handed
  // to the receive hook.
  void deliver(int dst, rdma::Packet pkt, int src);
  // The src -> dst QP in `qps` (one of src's per-destination tables),
  // created with `verb` on first use.
  rdma::QueuePair& qp(std::vector<std::unique_ptr<rdma::QueuePair>>& qps,
                      int src, int dst, rdma::Verb verb);
  rdma::QueuePair& data_qp(int src, int dst);
  SlicingBuffer& slicer(int src, int dst);

  const EngineConfig& cfg_;
  net::Fabric& fabric_;
  RecvHook on_recv_;
  LossHook on_loss_;
  std::vector<Worker> workers_;  // sized once; workers never move
};

}  // namespace whale::core

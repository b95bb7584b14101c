// Multicast groups (Secs. 3.2-3.4, DESIGN.md §2 and §6): per all-grouped
// stream serialized once, the endpoints, the relay tree, a self-adjusting
// tree's d* controller, and the one numbered, ACK-paced reconfiguration
// that a d* switch and a crash repair both run. The engine keeps the data
// path. Trees change only under faults, a d* controller, state or
// elasticity, each of which makes the parallel kernel fall back, so the
// data path's reads on partition threads always see a fixed tree.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/report.h"
#include "core/transport.h"
#include "dsps/topology.h"
#include "multicast/controller.h"
#include "multicast/tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace whale::core {

class McastGroups {
 public:
  // The engine's tasks as the component reads them: live task ids per
  // operator (instance order), a task's worker (tasks never move) and its
  // executor backlog (the d* controller's queue sample).
  struct Tasks {
    const std::vector<std::vector<int>>& by_op;
    std::function<int(int task)> worker;
    std::function<size_t(int task)> backlog;
  };

  // One group. The engine reads the public part.
  class Group {
   public:
    uint32_t id = 0;
    int stream = 0, dst_op = 0, src_task = 0, src_worker = 0;
    bool worker_level = true;  // endpoints are workers (WOC) or tasks (RDMC)
    size_t total_dst_instances = 0;
    multicast::MulticastTree tree;

    // The worker hosting tree node `node`, and (RDMC) its task.
    int worker(int node) const { return workers[static_cast<size_t>(node)]; }
    int task(int node) const { return ids[static_cast<size_t>(node)]; }
    // The tree node of worker or task `id`; -1 when it is no endpoint.
    int endpoint_of(int id) const {
      return static_cast<size_t>(id) < node_of.size()
                 ? node_of[static_cast<size_t>(id)]
                 : -1;
    }

   private:
    friend class McastGroups;
    // A self-adjusting tree's controller and per-group cost monitors.
    struct Adjuster {
      multicast::SelfAdjustingController controller;
      multicast::ServiceTimeMonitor ts{}, td{};  // per tuple, per child
    };
    // Tree node -> worker or task id and -> worker; id -> tree node. A
    // rescale shrink unmaps excised nodes in node_of but keeps their slots.
    std::vector<int> ids, workers, node_of;
    std::unique_ptr<Adjuster> adjust;
    // The change in flight: `owed` holds one worker per reconfigure sent;
    // a switch installs `next` at `next_dstar` when the last ACK lands.
    // Dead endpoints wait in `repair_queue` until the tree is free.
    bool reconfiguring = false;
    uint64_t change = 0;
    Time reconfig_start = 0;
    std::vector<int> owed;
    std::optional<multicast::MulticastTree> next;
    int next_dstar = 0;
    std::vector<int> repair_queue;
    int barrier_pending = 0;  // barrier copies inside the tree (epoch fence)
  };

  // Throws std::invalid_argument when a multicast stream's source operator
  // has parallelism > 1.
  McastGroups(const EngineConfig& cfg, const dsps::Topology& topo,
              Tasks tasks, net::Fabric& fabric, Transport& transport,
              obs::Tracer& tracer, RunReport& report);
  McastGroups(const McastGroups&) = delete;  // callbacks hold `this`
  McastGroups& operator=(const McastGroups&) = delete;

  size_t size() const { return groups_.size(); }
  const Group& group(size_t g) const { return *groups_[g]; }
  // The group disseminating `stream`; null for point-to-point streams.
  const Group* group_of_stream(int stream) const {
    return static_cast<size_t>(stream) < by_stream_.size()
               ? by_stream_[static_cast<size_t>(stream)]
               : nullptr;
  }
  // The out-degree bound of tree changes (at least 1).
  int dstar(const Group& g) const;

  // Statistics monitors (Sec. 4), kept for self-adjusting groups only: an
  // arrival at a source spout, a source's logic cost, a send's costs.
  void record_arrival(int task, Time now);
  void record_logic(int task, Duration cost);
  void record_send(const Group& g, Duration ser, uint64_t body_bytes);

  // Starts the controllers' sample loops; switches count from window_start.
  void start(Time window_start, Time window_end);
  void register_gauges(obs::MetricsRegistry& metrics);
  // Adds the controllers' switch counts and final d* to the report.
  void finalize();

  // A kControl or kAck packet from worker `src` reached live worker `dst`.
  void on_control(int dst, int src, const rdma::Packet& pkt);
  void on_crash(int node);
  void on_restart(int node);

  // Epoch fence: a barrier enters g's tree (false while g reconfigures),
  // a copy leaves `stream`'s tree, or every fence lifts.
  bool enter_fence(const Group& g);
  void exit_fence(int stream);
  void lift_fences();
  bool reconfiguring() const;

  // Installs the backlog floor of the d* controllers feeding `op`.
  void set_backlog_probe(int op,
                         multicast::SelfAdjustingController::BacklogProbe p);
  // Rebuilds the groups whose destination operator `op` was rescaled.
  void rescale(int op);

 private:
  enum CtrlType : uint8_t { kStatus = 0, kReconfigure = 1 };
  // A self-adjusting source task's monitors, shared by its groups.
  struct SourceMonitors {
    multicast::StreamMonitor stream;        // arrivals -> lambda
    multicast::ServiceTimeMonitor logic{};  // the source's own logic cost
  };

  bool worker_up(int w) const { return fabric_.node_up(w); }  // node == id
  SourceMonitors* monitors(int task) const;
  // The endpoints g's tree should hold behind its source (every other
  // worker hosting a destination instance, or for RDMC the instances), by
  // id or, for a rebuild, rack-contiguous so whole subtrees stay inside
  // one rack; and installing them as tree nodes 1...
  std::vector<int> wanted(const Group& g, bool by_rack) const;
  void assign_endpoints(Group& g, const std::vector<int>& ids);
  // Builds g's tree at out-degree `dstar` (0: cfg.initial_dstar), capped
  // at the binomial degree, with or resetting a self-adjusting controller.
  void build_tree(Group& g, int dstar);
  std::vector<int> endpoints_on(const Group& g, int node) const;
  void trace_change(const Group& g, const char* op, size_t moves);

  void sample_loop(Group& g);
  void controller_sample(Group& g);
  // Starts a change re-parenting `moves`: a switch passes its planned tree
  // and d*, a repair has already patched g.tree.
  void begin_reconfig(Group& g, const std::vector<multicast::Move>& moves,
                      std::optional<multicast::MulticastTree> next = {},
                      int next_dstar = 0);
  void finish_reconfig(Group& g);
  void abort_reconfig(Group& g);
  void maybe_start_repair(Group& g);
  // Wire format: u8 kind, varint group; a ControlMessage adds u8 ctype,
  // zero-padded to 64 bytes.
  void send(int src, int dst, MsgKind kind, uint32_t group, uint64_t change,
            CtrlType ctype = kStatus);

  const EngineConfig& cfg_;
  Tasks tasks_;
  net::Fabric& fabric_;
  Transport& transport_;
  obs::Tracer& tracer_;
  RunReport& report_;
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<Group*> by_stream_;
  std::vector<std::unique_ptr<SourceMonitors>> monitors_;  // by task id
  Time window_start_ = 0, window_end_ = 0;
};

}  // namespace whale::core

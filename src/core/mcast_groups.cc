#include "core/mcast_groups.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>

#include "multicast/queue_model.h"

namespace whale::core {

namespace {

// Wire size of a ControlMessage (status or reconfigure).
constexpr size_t kControlMessageBytes = 64;
// Statistics monitoring unit of the stream-rate monitor (Sec. 4).
constexpr Duration kMonitorUnit = ms(100);

}  // namespace

McastGroups::McastGroups(const EngineConfig& cfg, const dsps::Topology& topo,
                         Tasks tasks, net::Fabric& fabric,
                         Transport& transport, obs::Tracer& tracer,
                         RunReport& report)
    : cfg_(cfg), tasks_(std::move(tasks)), fabric_(fabric),
      transport_(transport), tracer_(tracer), report_(report) {
  // Plain Storm (instance + sequential) serializes per destination
  // instance and needs no group.
  const bool worker_level = cfg_.variant.comm == CommMode::kWorker;
  if (!worker_level && cfg_.variant.mcast == McastMode::kSequential) return;
  by_stream_.assign(topo.streams.size(), nullptr);
  for (const auto& s : topo.streams) {
    if (s.grouping != dsps::Grouping::kAll) continue;
    const auto& from = topo.ops[static_cast<size_t>(s.from_op)];
    if (from.parallelism != 1) {
      throw std::invalid_argument(
          "multicast requires the all-grouped stream's source operator to "
          "have parallelism 1 (operator '" + from.name + "')");
    }
    auto g = std::make_unique<Group>();
    g->id = static_cast<uint32_t>(groups_.size());
    g->stream = s.id;
    g->dst_op = s.to_op;
    g->src_task = tasks_.by_op[static_cast<size_t>(s.from_op)][0];
    g->src_worker = tasks_.worker(g->src_task);
    g->worker_level = worker_level;
    g->total_dst_instances = tasks_.by_op[static_cast<size_t>(s.to_op)].size();
    assign_endpoints(*g, wanted(*g, /*by_rack=*/false));
    build_tree(*g, /*dstar=*/0);
    by_stream_[static_cast<size_t>(s.id)] = g.get();
    groups_.push_back(std::move(g));
  }
}

std::vector<int> McastGroups::wanted(const Group& g, bool by_rack) const {
  std::vector<std::tuple<int, int, int>> keys;  // (rack, node, id)
  for (int t : tasks_.by_op[static_cast<size_t>(g.dst_op)]) {
    const int node = tasks_.worker(t);  // one worker per node
    const int id = g.worker_level ? node : t;
    if (g.worker_level && id == g.src_worker) continue;
    keys.emplace_back(by_rack ? cfg_.cluster.rack_of(node) : 0,
                      by_rack ? node : 0, id);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<int> ids;
  for (const auto& k : keys) ids.push_back(std::get<2>(k));
  return ids;
}

void McastGroups::assign_endpoints(Group& g, const std::vector<int>& ids) {
  g.ids.assign(1, g.worker_level ? g.src_worker : g.src_task);
  g.ids.insert(g.ids.end(), ids.begin(), ids.end());
  g.workers.clear();
  for (int id : g.ids) {
    g.workers.push_back(g.worker_level ? id : tasks_.worker(id));
  }
  g.node_of.assign(
      static_cast<size_t>(*std::max_element(g.ids.begin(), g.ids.end())) + 1,
      -1);
  for (size_t e = 0; e < g.ids.size(); ++e) {
    g.node_of[static_cast<size_t>(g.ids[e])] = static_cast<int>(e);
  }
}

void McastGroups::build_tree(Group& g, int dstar) {
  const int n = static_cast<int>(g.ids.size()) - 1;
  switch (cfg_.variant.mcast) {
    case McastMode::kSequential:
      g.tree = multicast::MulticastTree::build_sequential(n);
      return;
    case McastMode::kBinomial:
      g.tree = multicast::MulticastTree::build_binomial(n);
      return;
    case McastMode::kNonblocking:
      break;
  }
  const int cap = std::max(1, multicast::MD1::binomial_out_degree(n));
  const int d0 = dstar > 0                ? std::clamp(dstar, 1, cap)
                 : cfg_.initial_dstar > 0 ? std::min(cfg_.initial_dstar, cap)
                                          : cap;
  g.tree = multicast::MulticastTree::build_nonblocking(n, d0);
  if (!cfg_.self_adjust) return;
  // A rebuild restarts d* decisions against the new destination count;
  // the switch counts and the backlog probe stay.
  if (g.adjust) {
    g.adjust->controller.reset(n, d0);
    return;
  }
  g.adjust = std::make_unique<Group::Adjuster>(
      Group::Adjuster{multicast::SelfAdjustingController(
          cfg_.controller, cfg_.executor_queue_capacity, n, d0)});
  const size_t t = static_cast<size_t>(g.src_task);
  if (monitors_.size() <= t) monitors_.resize(t + 1);
  if (!monitors_[t]) {
    monitors_[t] = std::make_unique<SourceMonitors>(SourceMonitors{
        multicast::StreamMonitor(kMonitorUnit, cfg_.lambda_alpha)});
  }
}

int McastGroups::dstar(const Group& g) const {
  // The controller's d*; without one, sequential trees re-attach under
  // the source and binomial trees keep their widest degree.
  if (g.adjust) return g.adjust->controller.dstar();
  return std::max(1, g.tree.max_out_degree());
}

std::vector<int> McastGroups::endpoints_on(const Group& g, int node) const {
  std::vector<int> eps;
  for (size_t e = 1; e < g.ids.size(); ++e) {
    if (g.node_of[static_cast<size_t>(g.ids[e])] == static_cast<int>(e) &&
        g.workers[e] == node) {
      eps.push_back(static_cast<int>(e));
    }
  }
  return eps;
}

void McastGroups::trace_change(const Group& g, const char* op, size_t moves) {
  // Structural changes land as instants on the source's control lane; the
  // episode around them is the span finish_reconfig emits.
  if (!tracer_.enabled()) return;
  tracer_.instant(op, "mcast", g.src_worker, obs::kLaneControl,
                  fabric_.simulation().now(), 0, "moves",
                  static_cast<double>(moves));
}

McastGroups::SourceMonitors* McastGroups::monitors(int task) const {
  return static_cast<size_t>(task) < monitors_.size()
             ? monitors_[static_cast<size_t>(task)].get()
             : nullptr;
}

void McastGroups::record_arrival(int task, Time now) {
  if (SourceMonitors* m = monitors(task)) m->stream.record_arrival(now);
}

void McastGroups::record_logic(int task, Duration cost) {
  if (SourceMonitors* m = monitors(task)) m->logic.record(cost);
}

void McastGroups::record_send(const Group& g, Duration ser,
                              uint64_t body_bytes) {
  if (!g.adjust) return;
  // t_d covers the scheduling plus the transport's per-channel cost.
  g.adjust->ts.record(ser);
  g.adjust->td.record(cfg_.mcast_schedule_per_child +
                      transport_.send_cost(body_bytes).first);
}

void McastGroups::start(Time window_start, Time window_end) {
  window_start_ = window_start;
  window_end_ = window_end;
  for (auto& g : groups_) {
    if (g->adjust) sample_loop(*g);
  }
}

void McastGroups::sample_loop(Group& g) {
  Group* gp = &g;  // groups_ owns it for the engine's lifetime
  sim::Simulation& sim = fabric_.simulation();
  sim.schedule_after(cfg_.controller.sample_interval, [this, gp] {
    controller_sample(*gp);
    if (fabric_.simulation().now() < window_end_) sample_loop(*gp);
  });
}

void McastGroups::register_gauges(obs::MetricsRegistry& metrics) {
  for (const auto& gp : groups_) {
    const Group* g = gp.get();
    const std::string prefix = "group" + std::to_string(g->id);
    metrics.gauge(prefix + ".dstar", [g] {
      return static_cast<double>(g->tree.max_out_degree());
    });
    metrics.gauge(prefix + ".tree_depth",
                  [g] { return static_cast<double>(g->tree.depth()); });
  }
}

void McastGroups::finalize() {
  for (const auto& g : groups_) {
    if (!g->adjust) continue;
    report_.scale_ups += g->adjust->controller.scale_ups();
    report_.scale_downs += g->adjust->controller.scale_downs();
    report_.final_dstar = g->adjust->controller.dstar();
  }
}

void McastGroups::controller_sample(Group& g) {
  // Epoch fence: no switch starts while a barrier is inside the tree.
  if (g.reconfiguring || g.barrier_pending > 0) return;
  if (!worker_up(g.src_worker)) return;
  SourceMonitors& src = *monitors(g.src_task);
  Group::Adjuster& a = *g.adjust;
  const double lambda = src.stream.rate_tps(fabric_.simulation().now());
  const Duration td = a.td.has_estimate() ? a.td.estimate()
                                          : cfg_.mcast_schedule_per_child;
  const Duration ts = (a.ts.has_estimate() ? a.ts.estimate() : us(5)) +
                      (src.logic.has_estimate() ? src.logic.estimate() : 0);
  // Fold the once-per-tuple work (serialization + source logic) into an
  // effective per-replica time at the current out-degree (worker-oriented
  // mu = 1/(d*td + ts), Sec. 4).
  const int d0 = a.controller.dstar();
  const Duration te = td + ts / static_cast<Duration>(std::max(1, d0));
  const auto d =
      a.controller.on_sample(tasks_.backlog(g.src_task), lambda, te);
  using Action = multicast::SelfAdjustingController::Action;
  if (d.action == Action::kNone) return;
  multicast::MulticastTree next = g.tree;  // plan on a copy
  const auto moves = d.action == Action::kScaleDown
                         ? next.plan_scale_down(d.new_dstar)
                         : next.plan_scale_up(d.new_dstar);
  if (moves.empty()) {
    // Nothing to re-parent: the new out-degree applies at once.
    g.tree = std::move(next);
    a.controller.confirm(d.new_dstar);
    return;
  }
  begin_reconfig(g, moves, std::move(next), d.new_dstar);
}

void McastGroups::begin_reconfig(Group& g,
                                 const std::vector<multicast::Move>& moves,
                                 std::optional<multicast::MulticastTree> next,
                                 int next_dstar) {
  g.reconfiguring = true;
  ++g.change;
  g.reconfig_start = fabric_.simulation().now();
  g.next = std::move(next);
  g.next_dstar = next_dstar;
  g.owed.clear();
  for (const auto& mv : moves) {
    const int wk = g.worker(mv.node);
    if (worker_up(wk)) g.owed.push_back(wk);
  }
  if (g.owed.empty()) {
    // A leaf crash (or every orphan dead): nothing to renegotiate.
    finish_reconfig(g);
    return;
  }
  // Pause the source worker's data output (Thm. 4's v_out -> 0 window). A
  // dead source comes back unpaused (Engine::on_node_restart).
  transport_.set_paused(g.src_worker, true);
  // A switch announces itself with a StatusMessage to every endpoint...
  if (g.next) {
    for (size_t e = 1; e < g.ids.size(); ++e) {
      if (g.workers[e] == g.src_worker) continue;  // nothing to announce
      send(g.src_worker, g.workers[e], MsgKind::kControl, g.id, 0);
    }
  }
  // ...then a ControlMessage per moved endpoint; the recipient establishes
  // its new connection and ACKs, echoing the change.
  for (const int wk : g.owed) {
    send(g.src_worker, wk, MsgKind::kControl, g.id, g.change, kReconfigure);
  }
}

void McastGroups::send(int src, int dst, MsgKind kind, uint32_t group,
                       uint64_t change, CtrlType ctype) {
  ByteWriter w(16);
  w.put_u8(static_cast<uint8_t>(kind));
  w.put_varint(group);
  auto v = w.take();
  if (kind == MsgKind::kControl) {
    v.push_back(ctype);
    v.resize(std::max(v.size(), kControlMessageBytes), 0);
  }
  transport_.send_control(src, dst, make_bytes(std::move(v)), change);
}

void McastGroups::on_control(int dst, int src, const rdma::Packet& pkt) {
  ByteReader r(*pkt.bytes);
  const auto kind = static_cast<MsgKind>(r.get_u8());
  const auto group = static_cast<uint32_t>(r.get_varint());
  const uint64_t change = pkt.gen;
  if (kind == MsgKind::kAck) {
    // ACKs are attributed to their sender, so a crashed worker's missing
    // ACK is written off (on_crash) instead of wedging the change. An ACK
    // for an aborted or finished change is stale.
    Group& g = *groups_[group];
    if (!g.reconfiguring || change != g.change) return;
    const auto it = std::find(g.owed.begin(), g.owed.end(), src);
    if (it == g.owed.end()) return;
    g.owed.erase(it);
    if (g.owed.empty()) finish_reconfig(g);
    return;
  }
  if (r.get_u8() != kReconfigure) return;  // StatusMessage: informational
  // The endpoint tears down the old connection and establishes the new one
  // (QP creation + handshake), then ACKs to the source.
  fabric_.simulation().schedule_after(
      cfg_.switch_connection_setup, [this, dst, group, change] {
        if (!worker_up(dst)) return;  // crashed while connecting
        send(dst, groups_[group]->src_worker, MsgKind::kAck, group, change);
      });
}

void McastGroups::finish_reconfig(Group& g) {
  g.reconfiguring = false;
  const Time now = fabric_.simulation().now();
  const Duration took = now - g.reconfig_start;
  if (g.next) {
    g.tree = std::move(*g.next);
    g.next.reset();
    g.adjust->controller.confirm(g.next_dstar);
    if (tracer_.enabled()) {
      tracer_.complete("mcast.switch", "mcast", g.src_worker,
                       obs::kLaneControl, g.reconfig_start, took, 0, "dstar",
                       static_cast<double>(g.next_dstar));
    }
    if (now >= window_start_) {
      ++report_.switches_completed;
      report_.switch_time_total += took;
      report_.switch_time_max = std::max(report_.switch_time_max, took);
    }
  } else {
    report_.repair_time_total += took;
    report_.repair_time_max = std::max(report_.repair_time_max, took);
    if (tracer_.enabled()) {
      // Recovery episodes are traced regardless of the sampling stride.
      tracer_.complete("mcast.repair", "fault", g.src_worker,
                       obs::kLaneControl, g.reconfig_start, took, 0, "group",
                       static_cast<double>(g.id));
    }
  }
  transport_.set_paused(g.src_worker, false);
  transport_.pump(g.src_worker);
  maybe_start_repair(g);
}

void McastGroups::abort_reconfig(Group& g) {
  // The source resumes; a switch's controller decides again at its next
  // sample, and late ACKs for the change are stale.
  if (g.next) g.adjust->controller.abort_switch();
  g.reconfiguring = false;
  g.next.reset();
  g.owed.clear();
  transport_.set_paused(g.src_worker, false);
}

void McastGroups::on_crash(int node) {
  for (auto& gp : groups_) {
    Group& g = *gp;
    if (g.src_worker == node) {
      // The source died: its change in flight and queued repairs lived in
      // the dead process.
      abort_reconfig(g);
      g.repair_queue.clear();
      continue;
    }
    // A switch negotiated with the cluster as it was can no longer
    // complete: abort it; the controller re-evaluates after the repair.
    for (const int ep : endpoints_on(g, node)) {
      if (g.next) abort_reconfig(g);
      if (g.tree.removed(ep)) continue;
      g.repair_queue.push_back(ep);
      maybe_start_repair(g);
    }
    // A worker that owed an ACK will never send it.
    if (g.reconfiguring && std::erase(g.owed, node) > 0 && g.owed.empty()) {
      finish_reconfig(g);
    }
  }
}

void McastGroups::maybe_start_repair(Group& g) {
  // Epoch fence: a barrier inside the tree defers the repair until the
  // fence drains or lifts (at most one checkpoint interval).
  if (g.reconfiguring || g.repair_queue.empty() || g.barrier_pending > 0) {
    return;
  }
  const int ep = g.repair_queue.front();
  g.repair_queue.erase(g.repair_queue.begin());
  if (g.tree.removed(ep)) {
    maybe_start_repair(g);
    return;
  }
  // The tree is patched at once (the source must not relay into a dead
  // connection); the reconfiguration models the orphans re-connecting
  // while the source is paused, like a d* switch.
  const auto moves = g.tree.repair(ep, dstar(g));
  trace_change(g, "repair", moves.size());
  ++report_.tree_repairs;
  report_.repair_moves += moves.size();
  begin_reconfig(g, moves);
}

void McastGroups::on_restart(int node) {
  // Rejoin as a leaf at the shallowest open slot. A switch in flight was
  // planned without the endpoint and would drop it again at install:
  // abort it, like a crash does, and let the source send.
  for (auto& gp : groups_) {
    Group& g = *gp;
    for (const int ep : endpoints_on(g, node)) {
      if (!g.tree.removed(ep)) continue;
      g.tree.restore(ep, dstar(g));
      trace_change(g, "restore", 1);
      if (g.next) {
        abort_reconfig(g);
        transport_.pump(g.src_worker);
      }
    }
  }
}

bool McastGroups::enter_fence(const Group& g) {
  if (g.reconfiguring) return false;
  groups_[g.id]->barrier_pending += static_cast<int>(g.total_dst_instances);
  return true;
}

void McastGroups::exit_fence(int stream) {
  // Decremented for stale copies too: every copy counted in was counted
  // out (lift_fences zeroes the fence wholesale).
  if (!group_of_stream(stream)) return;
  Group& g = *by_stream_[static_cast<size_t>(stream)];
  if (g.barrier_pending > 0 && --g.barrier_pending == 0) maybe_start_repair(g);
}

void McastGroups::lift_fences() {
  for (auto& g : groups_) {
    if (g->barrier_pending > 0) {
      g->barrier_pending = 0;
      maybe_start_repair(*g);
    }
  }
}

bool McastGroups::reconfiguring() const {
  return std::any_of(groups_.begin(), groups_.end(),
                     [](const auto& g) { return g->reconfiguring; });
}

void McastGroups::set_backlog_probe(
    int op, multicast::SelfAdjustingController::BacklogProbe p) {
  for (auto& g : groups_) {
    if (g->dst_op == op && g->adjust) {
      g->adjust->controller.set_backlog_probe(p);
    }
  }
}

void McastGroups::rescale(int op) {
  for (auto& gp : groups_) {
    Group& g = *gp;
    if (g.dst_op != op) continue;
    g.total_dst_instances = tasks_.by_op[static_cast<size_t>(op)].size();
    const std::vector<int> want = wanted(g, /*by_rack=*/true);
    const bool shrink = std::all_of(want.begin(), want.end(), [&g](int id) {
      const int e = g.endpoint_of(id);
      return e >= 0 && !g.tree.removed(e);
    });
    if (shrink) {
      // Excise the endpoints that lost their instances through the repair
      // a crash uses, so survivors keep their connections and no
      // reconnect storm is paid.
      for (size_t e = 1; e < g.ids.size(); ++e) {
        const int node = static_cast<int>(e);
        if (g.tree.removed(node) ||
            std::find(want.begin(), want.end(), g.ids[e]) != want.end()) {
          continue;
        }
        trace_change(g, "repair", g.tree.repair(node, dstar(g)).size());
        g.node_of[static_cast<size_t>(g.ids[e])] = -1;
      }
      continue;
    }
    // Grow (or mixed): rebuild endpoints and tree wholesale. Safe at the
    // rescale commit: the quiesced source stopped emitting before its
    // barrier and the fence is down, so the old tree carries nothing; a
    // stale copy on the wire maps to no endpoint and is dropped.
    assign_endpoints(g, want);
    build_tree(g, g.adjust ? g.adjust->controller.dstar() : 0);
  }
}

}  // namespace whale::core

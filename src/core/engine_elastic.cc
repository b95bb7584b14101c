// Elastic runtime rescaling (src/elastic; DESIGN.md §14).
//
// The engine side of the subsystem: eligibility, the poll loop feeding
// the per-operator ScalingControllers, and the migration protocol that
// executes an adopted plan at the commit of the epoch it rides.
//
// Protocol summary. A rescale rides an epoch through the checkpoint
// component's events (core/checkpoints.h). elastic_tick adopts at most one
// plan engine-wide; the next epoch to begin stamps it (rescale_epoch_).
// Every task in the quiesce set — the rescaled operator plus every
// operator with a stream into it — freezes when it seals that epoch,
// AFTER forwarding the barrier and launching its snapshot write, so the
// commit never waits on a quiesced executor. Per-channel FIFO then
// guarantees that when the epoch commits, the rescaled operator's queues
// hold no data: everything its upstreams emitted before quiescing was
// processed before the operator's own alignment. The commit event runs
// execute_rescale at the very end of the commit — no epoch in flight, no
// group switching or repairing, no barrier inside any tree — the one
// point where the topology can change atomically. The abort event instead
// runs cancel_rescale: the plan dies with the epoch (the controller
// re-issues after its cooldown if the backlog persists).
//
// All of this runs on the serial kernel by construction: setup_parallel
// names "elastic" as a fallback reason before anything here executes, so
// no shared_guard locking appears below.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "elastic/keyed.h"
#include "elastic/placement.h"

namespace whale::core {

void Engine::elastic_setup() {
  // The migration protocol is built on epoch barriers and the checkpoint
  // store's committed images; these are hard requirements, and a
  // config that silently ran without them would look elastic while never
  // preserving exactly-once across a rescale.
  if (!state_on()) {
    throw std::invalid_argument(
        "elastic rescaling requires cfg.state.enabled: the rescale "
        "protocol quiesces operators at epoch-barrier alignment");
  }
  if (cfg_.state.unaligned) {
    throw std::invalid_argument(
        "elastic rescaling requires aligned barriers (cfg.state.unaligned "
        "off): quiesce happens at alignment, and an unaligned capture "
        "window would leak post-snapshot effects past the cutover");
  }
  if (cfg_.state.remote) {
    throw std::invalid_argument(
        "elastic rescaling requires the local checkpoint store "
        "(cfg.state.remote off): migration merges the live local stores, "
        "which would diverge from host-resident incremental images");
  }
  escalers_.resize(topo_.ops.size());
  for (size_t op = 0; op < topo_.ops.size(); ++op) {
    if (!op_rescalable(static_cast<int>(op))) continue;
    escalers_[op] = std::make_unique<elastic::ScalingController>(
        cfg_.elastic, static_cast<int>(op), topo_.ops[op].parallelism);
    // The d* controllers of multicast groups feeding a rescalable operator
    // see its smoothed backlog as a queue-length floor, so tree out-degree
    // reacts to the same gauge stream the rescaler acts on.
    elastic::ScalingController* sc = escalers_[op].get();
    mcast_->set_backlog_probe(static_cast<int>(op),
                              [sc] { return sc->backlog_ewma(); });
  }
}

bool Engine::op_rescalable(int op) const {
  const auto& spec = topo_.ops[static_cast<size_t>(op)];
  // Spouts own arrival RNGs and disjoint root-id streams sized at build
  // time; rescaling them would re-seed the workload mid-run.
  if (spec.is_spout) return false;
  // The source of an all-grouped stream must keep parallelism 1
  // (build_mcast_groups enforces it), so it can never grow.
  for (int sid : spec.out_streams) {
    if (topo_.streams[static_cast<size_t>(sid)].grouping ==
        dsps::Grouping::kAll) {
      return false;
    }
  }
  const auto& ids = op_tasks_[static_cast<size_t>(op)];
  if (ids.empty()) return false;
  // Every registered cell must be migratable: keyed cells re-split by
  // key range, routing cells rebuild through rebalanced(). Any other
  // cell is operator-private state the migration cannot redistribute.
  const auto& store = tasks_[static_cast<size_t>(ids[0])]->store;
  return !store.has_cell_matching([](const std::string& name) {
    return !elastic::is_keyed_cell(name) && !dsps::is_routing_cell(name);
  });
}

void Engine::epoch_begun(uint64_t epoch) {
  if (!elastic_on() || !pending_plan_ || rescale_epoch_ != 0) return;
  rescale_epoch_ = epoch;
  rescale_start_ = cur_sim().now();
  if (trace_on()) {
    tracer_.instant("rescale.begin", "elastic",
                    primary_src_worker_ >= 0 ? primary_src_worker_ : 0,
                    obs::kLaneControl, cur_sim().now(),
                    static_cast<uint64_t>(pending_plan_->op));
  }
}

void Engine::task_sealed(int task, uint64_t epoch) {
  TaskRt& t = *tasks_[static_cast<size_t>(task)];
  if (elastic_on() && epoch == rescale_epoch_ && in_quiesce_set(t.op)) {
    t.quiesced = true;
  }
}

void Engine::epoch_committed(uint64_t epoch) {
  if (elastic_on() && epoch == rescale_epoch_) execute_rescale();
}

void Engine::epoch_aborted(uint64_t epoch) {
  if (elastic_on() && epoch == rescale_epoch_) cancel_rescale();
  for (auto& tp : tasks_) pump_task(*tp);  // its fences are closed
}

double Engine::op_backlog_frac(int op) const {
  if (cfg_.executor_queue_capacity == 0) return 0.0;
  double sum = 0.0;
  int n = 0;
  for (int tid : op_tasks_[static_cast<size_t>(op)]) {
    const auto& t = *tasks_[static_cast<size_t>(tid)];
    if (!t.active) continue;
    sum += static_cast<double>(t.in_queue->size()) /
           static_cast<double>(cfg_.executor_queue_capacity);
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

void Engine::elastic_tick() {
  const Time now = cur_sim().now();
  for (size_t op = 0; op < escalers_.size(); ++op) {
    elastic::ScalingController* sc = escalers_[op].get();
    if (!sc) continue;
    if (c_el_polls_) c_el_polls_->inc();
    auto plan = sc->on_sample(op_backlog_frac(static_cast<int>(op)), now);
    if (!plan) continue;
    if (pending_plan_) {
      // Plans serialize engine-wide: a second issuer in the same window
      // backs off into its cooldown and re-evaluates afterwards.
      sc->abort(now);
      continue;
    }
    pending_plan_ = *plan;
    // Quiesce set: the rescaled operator plus every operator with a
    // stream into it. Upstreams freeze so nothing is emitted toward the
    // operator after its snapshot; transitive ancestors keep running —
    // their output backs up in the quiesced executors' bounded queues
    // for the one-epoch migration window.
    quiesce_ops_.clear();
    quiesce_ops_.insert(plan->op);
    for (int sid : topo_.ops[op].in_streams) {
      quiesce_ops_.insert(topo_.streams[static_cast<size_t>(sid)].from_op);
    }
    if (trace_on()) {
      tracer_.instant("rescale.plan", "elastic",
                      primary_src_worker_ >= 0 ? primary_src_worker_ : 0,
                      obs::kLaneControl, now,
                      static_cast<uint64_t>(plan->op), "to",
                      static_cast<double>(plan->to));
    }
  }
}

void Engine::cancel_rescale() {
  if (pending_plan_) {
    elastic::ScalingController* sc =
        escalers_[static_cast<size_t>(pending_plan_->op)].get();
    if (sc) sc->abort(cur_sim().now());
    ++report_.elastic.rescales_canceled;
    if (c_el_canceled_) c_el_canceled_->inc();
    if (trace_on()) {
      tracer_.instant("rescale.cancel", "elastic",
                      primary_src_worker_ >= 0 ? primary_src_worker_ : 0,
                      obs::kLaneControl, cur_sim().now(),
                      static_cast<uint64_t>(pending_plan_->op));
    }
  }
  pending_plan_.reset();
  rescale_epoch_ = 0;
  quiesce_ops_.clear();
  // Release only — epoch_aborted pumps every executor right after this
  // returns, so the frozen executors pick their queues back up.
  for (auto& tp : tasks_) tp->quiesced = false;
}

int Engine::place_instance(int op) const {
  std::vector<int> peers;
  std::vector<int> load(static_cast<size_t>(cfg_.cluster.num_nodes), 0);
  for (const auto& tp : tasks_) {
    if (!tp->active) continue;
    ++load[static_cast<size_t>(tp->node)];
    if (tp->op == op) peers.push_back(tp->node);
  }
  return elastic::Placement(cfg_.cluster).pick(peers, load);
}

void Engine::execute_rescale() {
  const elastic::RescalePlan plan = *pending_plan_;
  const int opi = plan.op;
  const auto& spec = topo_.ops[static_cast<size_t>(opi)];
  const int old_n = static_cast<int>(op_tasks_[static_cast<size_t>(opi)].size());
  const int new_n = plan.to;
  const Time now = cur_sim().now();

  // --- 1. merge + re-split keyed state --------------------------------------
  // Every old instance is quiesced with this epoch's snapshot committed,
  // so its live store equals its committed image; reading the live store
  // avoids re-parsing stored images. keyed_names preserves first-seen
  // registration order so rebuilt snapshots stay byte-stable.
  std::vector<std::string> keyed_names;
  std::unordered_map<std::string, std::vector<std::vector<uint8_t>>> bodies;
  for (int tid : op_tasks_[static_cast<size_t>(opi)]) {
    auto cells = state::parse_snapshot(
        tasks_[static_cast<size_t>(tid)]->store.snapshot());
    for (auto& [name, body] : cells) {
      if (!elastic::is_keyed_cell(name)) continue;
      if (bodies.find(name) == bodies.end()) keyed_names.push_back(name);
      bodies[name].push_back(std::move(body));
    }
  }
  elastic::SplitStats split_stats;
  std::unordered_map<std::string, std::vector<std::vector<uint8_t>>> split;
  for (const auto& name : keyed_names) {
    split[name] = elastic::split_keyed_cell(
        bodies[name], static_cast<size_t>(new_n), &split_stats);
  }

  // --- 2. adopt the new parallelism ------------------------------------------
  // Before any spawn, so fresh instances are prepared with the new shape.
  topo_.ops[static_cast<size_t>(opi)].parallelism = new_n;

  // --- 3. retire / spawn instances ------------------------------------------
  uint64_t retired = 0, spawned = 0;
  if (new_n < old_n) {
    // Retire the tail instances: op_tasks_ position i <-> instance i, and
    // keeping the head preserves that invariant without renumbering.
    for (int tid : op_tasks_[static_cast<size_t>(opi)]) {
      auto& t = *tasks_[static_cast<size_t>(tid)];
      if (t.instance < new_n) continue;
      t.active = false;
      t.quiesced = false;
      t.processing = false;
      // The quiesce protocol should have emptied these; drain defensively
      // and surface anything present on the proof-obligation counter.
      const uint64_t stale = ckpt_->retire(tid);
      report_.elastic.stale_drops += stale;
      if (c_el_stale_drops_) c_el_stale_drops_->inc(stale);
      ++retired;
    }
  } else if (new_n > old_n) {
    const elastic::Placement placement(cfg_.cluster);
    for (int i = old_n; i < new_n; ++i) {
      // Placement sees already-spawned siblings (appended below), so a
      // multi-instance grow spreads the same way repeated grows would.
      std::vector<int> peers;
      for (int tid : op_tasks_[static_cast<size_t>(opi)]) {
        peers.push_back(tasks_[static_cast<size_t>(tid)]->node);
      }
      const int node = place_instance(opi);
      if (!placement.rack_local(node, peers)) {
        ++report_.elastic.cross_rack_placements;
      }
      TaskRt& t = add_task(opi, i, /*worker=*/node);  // one worker per node
      // Bound like a build-time task; step 5 then installs its slice.
      ckpt_->add_task({t.id, t.op, t.node, t.cpu.get(), t.in_queue.get(),
                       &t.store});
      if (metrics_on()) {
        TaskRt* raw = &t;
        metrics_.gauge("task" + std::to_string(t.id) + ".in_queue", [raw] {
          return static_cast<double>(raw->in_queue->size());
        });
      }
      ++spawned;
    }
  }

  // --- 4. prune the task indexes --------------------------------------------
  auto prune = [this](std::vector<int>& ids) {
    ids.erase(std::remove_if(ids.begin(), ids.end(),
                             [this](int tid) {
                               return !tasks_[static_cast<size_t>(tid)]->active;
                             }),
              ids.end());
  };
  prune(op_tasks_[static_cast<size_t>(opi)]);
  for (auto& wp : workers_) prune(wp->op_local_tasks[static_cast<size_t>(opi)]);

  // --- 5. install the re-split state ------------------------------------------
  // Surviving and fresh instances alike restore their keyed slice, learn
  // the new shape, and make it their recovery image — a crash after this
  // cutover rolls back to exactly the state the rescale installed.
  for (size_t i = 0; i < op_tasks_[static_cast<size_t>(opi)].size(); ++i) {
    const int tid = op_tasks_[static_cast<size_t>(opi)][i];
    auto& t = *tasks_[static_cast<size_t>(tid)];
    state::SnapshotCells cells;
    cells.reserve(keyed_names.size());
    for (const auto& name : keyed_names) {
      cells.emplace_back(name, split[name][i]);
    }
    t.store.restore(state::build_snapshot(cells));
    dsps::TaskContext ctx{t.id, opi, static_cast<int>(i), new_n, t.worker,
                          t.node};
    t.bolt->rescaled(ctx);
    ckpt_->install(tid);
  }

  // --- 6. rewire upstream routing ---------------------------------------------
  for (auto& tp : tasks_) {
    if (!tp->active) continue;
    const auto& tspec = topo_.ops[static_cast<size_t>(tp->op)];
    for (size_t oi = 0; oi < tspec.out_streams.size(); ++oi) {
      if (topo_.streams[static_cast<size_t>(tspec.out_streams[oi])].to_op !=
          opi) {
        continue;
      }
      tp->strategies[oi]->rebalanced(static_cast<size_t>(new_n));
    }
  }

  // --- 7. stream bookkeeping ---------------------------------------------------
  // Instance-indexed accounting must admit the new indexes; on shrink the
  // old columns stay (whole-run counters never forget retired instances).
  for (int sid : spec.in_streams) {
    const size_t s = static_cast<size_t>(sid);
    if (stream_instance_counts_[s].size() < static_cast<size_t>(new_n)) {
      stream_instance_counts_[s].resize(static_cast<size_t>(new_n), 0);
      stream_instance_snap_[s].resize(static_cast<size_t>(new_n), 0);
    }
    if (topo_.streams[s].grouping == dsps::Grouping::kAll) {
      stream_dst_count_[s] = static_cast<uint32_t>(new_n);
    }
  }

  // --- 8. alignment channels and epoch participants ----------------------
  ckpt_->rescaled();

  // --- 9. multicast structures ----------------------------------------------------
  mcast_->rescale(opi);

  // --- 10. controller + accounting ---------------------------------------
  escalers_[static_cast<size_t>(opi)]->confirm(new_n, now);

  auto& el = report_.elastic;
  if (plan.delta > 0) {
    ++el.scale_ups;
    if (c_el_ups_) c_el_ups_->inc();
  } else {
    ++el.scale_downs;
    if (c_el_downs_) c_el_downs_->inc();
  }
  el.instances_spawned += spawned;
  el.instances_retired += retired;
  el.keyed_entries_moved += split_stats.entries;
  el.state_bytes_moved += split_stats.bytes;
  if (c_el_moved_bytes_) c_el_moved_bytes_->inc(split_stats.bytes);
  const Duration stall = now - rescale_start_;
  el.migration_stall_total += stall;
  el.migration_stall_max = std::max(el.migration_stall_max, stall);
  el.episodes.push_back({opi, plan.from, new_n, now, stall, plan.backlog});
  if (trace_on()) {
    tracer_.complete("rescale", "elastic",
                     primary_src_worker_ >= 0 ? primary_src_worker_ : 0,
                     obs::kLaneControl, rescale_start_, stall,
                     static_cast<uint64_t>(opi));
  }

  pending_plan_.reset();
  rescale_epoch_ = 0;
  quiesce_ops_.clear();

  // LAST: release the quiesced executors. Every structural update above
  // is visible before any of them processes another tuple, so the first
  // post-cutover emission already routes against the new shape.
  for (auto& tp : tasks_) {
    if (!tp->active || !tp->quiesced) continue;
    tp->quiesced = false;
    pump_task(*tp);
  }
}

}  // namespace whale::core

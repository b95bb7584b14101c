#include "core/elastic.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "dsps/partitioning.h"
#include "elastic/keyed.h"
#include "elastic/placement.h"
#include "state/state_store.h"

namespace whale::core {

Elastic::Elastic(const EngineConfig& cfg, dsps::Topology& topo,
                 const std::vector<std::vector<int>>& op_tasks,
                 Checkpoints& ckpt, McastGroups& mcast, sim::Simulation& sim,
                 obs::Tracer& tracer, RunReport& report, Hooks& hooks,
                 int trace_pid)
    : cfg_(cfg),
      topo_(topo),
      op_tasks_(op_tasks),
      ckpt_(ckpt),
      mcast_(mcast),
      sim_(sim),
      tracer_(tracer),
      report_(report),
      hooks_(hooks),
      trace_pid_(trace_pid) {
  // The migration protocol is built on epoch barriers and the checkpoint
  // store's committed images; a config that silently ran without them
  // would look elastic while never preserving exactly-once across a
  // rescale.
  if (!cfg_.state.enabled) {
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
  const elastic::ElasticConfig& el = cfg_.elastic;
  if (el.min_parallelism < 1) {
    throw std::invalid_argument(
        "cfg.elastic.min_parallelism must be at least 1: a shrink to 0 "
        "instances leaves no owner for any key");
  }
  if (el.poll_interval <= 0) {
    throw std::invalid_argument(
        "cfg.elastic.poll_interval must be positive: the poll loop would "
        "re-arm at the same instant forever");
  }
  if (el.step < 1) {
    throw std::invalid_argument(
        "cfg.elastic.step must be at least 1: the controllers would poll "
        "but never plan");
  }
  controllers_.resize(topo_.ops.size());
  for (size_t op = 0; op < topo_.ops.size(); ++op) {
    if (!rescalable(static_cast<int>(op))) continue;
    controllers_[op] = std::make_unique<elastic::ScalingController>(
        el, static_cast<int>(op), topo_.ops[op].parallelism);
    // The d* controllers of multicast groups feeding a rescalable operator
    // see its smoothed backlog as a queue-length floor, so tree out-degree
    // reacts to the same gauge stream the rescaler acts on.
    elastic::ScalingController* sc = controllers_[op].get();
    mcast_.set_backlog_probe(static_cast<int>(op),
                             [sc] { return sc->backlog_ewma(); });
  }
}

bool Elastic::rescalable(int op) const {
  const auto& spec = topo_.ops[static_cast<size_t>(op)];
  // Spouts own arrival RNGs and disjoint root-id streams sized at build
  // time; rescaling them would re-seed the workload mid-run.
  if (spec.is_spout) return false;
  // The source of an all-grouped stream must keep parallelism 1
  // (McastGroups enforces it), so it can never grow.
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
  return !ckpt_.executor(ids[0]).store->has_cell_matching(
      [](const std::string& name) {
        return !elastic::is_keyed_cell(name) && !dsps::is_routing_cell(name);
      });
}

void Elastic::register_metrics(obs::MetricsRegistry& metrics) {
  polls_.c = metrics.counter("elastic.polls");
  scale_ups_.c = metrics.counter("elastic.scale_ups");
  scale_downs_.c = metrics.counter("elastic.scale_downs");
  canceled_.c = metrics.counter("elastic.rescales_canceled");
  bytes_moved_.c = metrics.counter("elastic.state_bytes_moved");
  stale_drops_.c = metrics.counter("elastic.stale_drops");
  for (size_t op = 0; op < controllers_.size(); ++op) {
    const elastic::ScalingController* sc = controllers_[op].get();
    if (!sc) continue;
    const std::string prefix = "elastic.op" + std::to_string(op);
    metrics.gauge(prefix + ".parallelism",
                  [sc] { return static_cast<double>(sc->parallelism()); });
    metrics.gauge(prefix + ".backlog_ewma",
                  [sc] { return sc->backlog_ewma(); });
  }
}

void Elastic::start(Time window_end) {
  window_end_ = window_end;
  report_.elastic.enabled = true;
  sim_.schedule_after(cfg_.elastic.poll_interval, [this] { poll(); });
}

double Elastic::backlog(int op) const {
  if (cfg_.executor_queue_capacity == 0) return 0.0;
  const auto& ids = op_tasks_[static_cast<size_t>(op)];
  double sum = 0.0;
  for (int tid : ids) {
    sum += static_cast<double>(ckpt_.executor(tid).in_queue->size()) /
           static_cast<double>(cfg_.executor_queue_capacity);
  }
  return sum / static_cast<double>(ids.size());
}

void Elastic::poll() {
  const Time now = sim_.now();
  for (size_t op = 0; op < controllers_.size(); ++op) {
    elastic::ScalingController* sc = controllers_[op].get();
    if (!sc) continue;
    polls_.add();
    const auto plan = sc->on_sample(backlog(static_cast<int>(op)), now);
    if (!plan) continue;
    if (plan_) {
      // Plans serialize engine-wide: a second issuer in the same window
      // backs off into its cooldown and re-evaluates afterwards.
      sc->abort(now);
      continue;
    }
    plan_ = *plan;
    // Upstreams freeze so nothing is emitted toward the operator after its
    // snapshot; transitive ancestors keep running — their output backs up
    // in the quiesced executors' bounded queues for the one-epoch window.
    quiesce_ops_ = {plan->op};
    for (int sid : topo_.ops[op].in_streams) {
      quiesce_ops_.insert(topo_.streams[static_cast<size_t>(sid)].from_op);
    }
    if (tracer_.enabled()) {
      tracer_.instant("rescale.plan", "elastic", trace_pid_,
                      obs::kLaneControl, now, static_cast<uint64_t>(plan->op),
                      "to", static_cast<double>(plan->to));
    }
  }
  if (now < window_end_) {
    sim_.schedule_after(cfg_.elastic.poll_interval, [this] { poll(); });
  }
}

void Elastic::epoch_begun(uint64_t epoch) {
  if (!plan_ || rescale_epoch_ != 0) return;
  rescale_epoch_ = epoch;
  rescale_start_ = sim_.now();
  if (tracer_.enabled()) {
    tracer_.instant("rescale.begin", "elastic", trace_pid_, obs::kLaneControl,
                    sim_.now(), static_cast<uint64_t>(plan_->op));
  }
}

void Elastic::epoch_committed(uint64_t epoch) {
  if (epoch == rescale_epoch_) cutover();
}

void Elastic::epoch_aborted(uint64_t epoch) {
  if (epoch != rescale_epoch_) return;
  controllers_[static_cast<size_t>(plan_->op)]->abort(sim_.now());
  canceled_.add();
  if (tracer_.enabled()) {
    tracer_.instant("rescale.cancel", "elastic", trace_pid_,
                    obs::kLaneControl, sim_.now(),
                    static_cast<uint64_t>(plan_->op));
  }
  plan_.reset();
  rescale_epoch_ = 0;
  quiesce_ops_.clear();
}

int Elastic::place(int op) const {
  // Every live task counts toward its node's load: retired ones are
  // already pruned, and spawned siblings are in, so a multi-instance grow
  // spreads the same way repeated grows would.
  std::vector<int> load(static_cast<size_t>(cfg_.cluster.num_nodes), 0);
  for (const auto& ids : op_tasks_) {
    for (int tid : ids) ++load[static_cast<size_t>(node(tid))];
  }
  std::vector<int> peers;
  for (int tid : op_tasks_[static_cast<size_t>(op)]) {
    peers.push_back(node(tid));
  }
  return elastic::Placement(cfg_.cluster).pick(peers, load);
}

void Elastic::cutover() {
  const elastic::RescalePlan plan = *plan_;
  const int op = plan.op;
  const std::vector<int>& ids = op_tasks_[static_cast<size_t>(op)];
  const int old_n = static_cast<int>(ids.size());
  const int new_n = plan.to;
  const Time now = sim_.now();

  // Merge + re-split keyed state. Every old instance is quiesced with this
  // epoch's snapshot committed, so its live store equals its committed
  // image; reading the live store avoids re-parsing stored images.
  // keyed_names keeps first-seen registration order so the rebuilt images
  // stay byte-stable.
  std::vector<std::string> keyed_names;
  std::unordered_map<std::string, std::vector<std::vector<uint8_t>>> bodies;
  for (int tid : ids) {
    for (auto& [name, body] :
         state::parse_snapshot(ckpt_.executor(tid).store->snapshot())) {
      if (!elastic::is_keyed_cell(name)) continue;
      if (bodies.find(name) == bodies.end()) keyed_names.push_back(name);
      bodies[name].push_back(std::move(body));
    }
  }
  elastic::SplitStats split_stats;
  std::vector<std::vector<std::vector<uint8_t>>> split;  // by keyed name
  for (const auto& name : keyed_names) {
    split.push_back(elastic::split_keyed_cell(
        bodies[name], static_cast<size_t>(new_n), &split_stats));
  }
  std::vector<std::vector<uint8_t>> images;  // by new instance
  for (int i = 0; i < new_n; ++i) {
    state::SnapshotCells cells;
    for (size_t c = 0; c < keyed_names.size(); ++c) {
      cells.emplace_back(keyed_names[c], split[c][static_cast<size_t>(i)]);
    }
    images.push_back(state::build_snapshot(cells));
  }

  // Before any spawn, so fresh instances are prepared with the new shape.
  topo_.ops[static_cast<size_t>(op)].parallelism = new_n;
  auto& el = report_.elastic;
  if (new_n < old_n) {
    // Retire the tail: task index position i is instance i, and keeping
    // the head preserves that without renumbering.
    for (int i = new_n; i < old_n; ++i) {
      stale_drops_.add(hooks_.retire(ids[static_cast<size_t>(i)]));
    }
    el.instances_retired += static_cast<uint64_t>(old_n - new_n);
    scale_downs_.add();
  } else {
    for (int i = old_n; i < new_n; ++i) hooks_.spawn(op, i, place(op));
    el.instances_spawned += static_cast<uint64_t>(new_n - old_n);
    scale_ups_.add();
  }
  hooks_.reshape(op, images);
  ckpt_.rescaled();  // alignment channels and epoch participants
  mcast_.rescale(op);
  controllers_[static_cast<size_t>(op)]->confirm(new_n, now);

  el.keyed_entries_moved += split_stats.entries;
  bytes_moved_.add(split_stats.bytes);
  const Duration stall = now - rescale_start_;
  el.migration_stall_total += stall;
  el.migration_stall_max = std::max(el.migration_stall_max, stall);
  el.episodes.push_back({op, plan.from, new_n, now, stall, plan.backlog});
  if (tracer_.enabled()) {
    tracer_.complete("rescale", "elastic", trace_pid_, obs::kLaneControl,
                     rescale_start_, stall, static_cast<uint64_t>(op));
  }
  plan_.reset();
  rescale_epoch_ = 0;
  quiesce_ops_.clear();
  // LAST: every structural update above is visible before a released
  // executor processes another tuple, so the first post-cutover emission
  // already routes against the new shape.
  hooks_.release();
}

}  // namespace whale::core

#include "core/acking.h"

#include <algorithm>

#include "dsps/topology.h"

namespace whale::core {

namespace {

// Spout replays of one failed root before it is written off.
constexpr int kMaxReplaysPerRoot = 3;
// Roots held for replay at once; emissions past it are not replayable.
constexpr size_t kMaxHeld = size_t{1} << 20;
// A replay whose spout's node is down waits this long, then tries again.
constexpr Duration kReplayRetry = ms(50);

}  // namespace

Acking::Acking(const EngineConfig& cfg, sim::Simulation& sim,
               obs::Tracer& tracer, RunReport& report, Hooks& hooks)
    : cfg_(cfg), sim_(sim), tracer_(tracer), report_(report), hooks_(hooks) {
  ledger_.set_on_complete(
      [this](uint64_t root, Time emit) { completed(root, emit); });
  ledger_.set_on_fail([this](uint64_t root) { failed(root); });
}

void Acking::start(Time window_start, Time window_end, int trace_pid) {
  window_start_ = window_start;
  window_end_ = window_end;
  trace_pid_ = trace_pid;
  // Sweep often enough that short timeouts (crash-recovery tests) detect
  // losses promptly, but never more than once per millisecond-scale tick.
  sweep(std::min<Duration>(sec(1),
                           std::max<Duration>(ms(10), cfg_.ack_timeout / 4)));
}

void Acking::sweep(Duration period) {
  sim_.schedule_after(period, [this, period] {
    ledger_.expire_older_than(sim_.now() - cfg_.ack_timeout);
    if (sim_.now() < window_end_) sweep(period);
  });
}

void Acking::emitted(const dsps::Tuple& t, int task, int worker) {
  ledger_.root_emitted(t.root_id, sim_.now());
  if (!cfg_.state.enabled && held_.size() < kMaxHeld) {
    held_.emplace(t.root_id, Held{t, task, worker, 0});
  }
}

void Acking::anchor(uint64_t root, int task) {
  if (!ledger_.tracking(root)) return;
  const uint64_t edge =
      dsps::value_hash(dsps::Value{static_cast<int64_t>(next_edge_++)});
  ledger_.anchored(root, edge);
  edges_[root][task].push_back(edge);
}

uint64_t Acking::take(uint64_t root, int task) {
  auto rit = edges_.find(root);
  if (rit == edges_.end()) return 0;
  auto tit = rit->second.find(task);
  if (tit == rit->second.end() || tit->second.empty()) return 0;
  const uint64_t edge = tit->second.front();
  tit->second.erase(tit->second.begin());
  if (tit->second.empty()) rit->second.erase(tit);
  if (rit->second.empty()) edges_.erase(rit);
  return edge;
}

void Acking::completed(uint64_t root, Time emit) {
  edges_.erase(root);
  bool replayed = false;
  if (const auto it = held_.find(root); it != held_.end()) {
    replayed = it->second.attempts > 0;
    held_.erase(it);
  }
  if (in_window()) {
    ++report_.acked_roots;
    report_.ack_latency.add(sim_.now() - emit);
    if (replayed) ++report_.replay_completions;
  }
  if (tracer_.enabled() && tracer_.sampled(root)) {
    tracer_.instant("ack.complete", "app", trace_pid_, obs::kLaneControl,
                    sim_.now(), root);
  }
}

void Acking::failed(uint64_t root) {
  edges_.erase(root);
  if (in_window()) ++report_.failed_roots;
  replay(root);
}

void Acking::replay(uint64_t root) {
  const auto it = held_.find(root);
  if (it == held_.end()) return;
  Held& h = it->second;
  if (!hooks_.spout_up(h.task)) {
    if (sim_.now() < window_end_) {
      sim_.schedule_after(kReplayRetry, [this, root] { replay(root); });
    }
    return;
  }
  if (h.attempts >= kMaxReplaysPerRoot) {
    ++report_.replays_exhausted;
    held_.erase(it);
    return;
  }
  ++h.attempts;
  auto tuple = std::make_shared<dsps::Tuple>(h.tuple);
  tuple->root_emit_time = sim_.now();
  ++report_.replayed_roots;
  if (tracer_.enabled() && tracer_.sampled(root)) {
    tracer_.instant("replay", "app", h.worker, obs::kLaneApp, sim_.now(),
                    root);
  }
  ledger_.root_emitted(root, sim_.now());
  // A bounce off the full spout queue fails the root again, which spends
  // its next attempt at once.
  if (!hooks_.reinject(h.task, std::move(tuple))) ledger_.fail(root);
}

}  // namespace whale::core

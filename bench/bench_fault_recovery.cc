// Fault-recovery sweep — crash timing vs recovery latency.
//
// A relay node of the multicast tree is crashed at different points in the
// measurement window (and restarted a fixed delay later). Per crash time
// the bench reports the tree-repair cost, the delivery gap observed in the
// throughput series, and the acker-driven replay traffic that restores
// at-least-once delivery across the outage.
//
// Not a paper figure: the paper assumes a fault-free cluster; this bench
// characterises the recovery subsystem layered on top of it.
#include "bench/bench_util.h"

#include "faults/plan.h"

using namespace whale;
using namespace whale::bench;

namespace {

struct Point {
  Duration crash_at;
  core::RunReport report;
};

core::RunReport run_with_crash(Duration crash_at, Duration restart_after,
                               Duration bin, Duration window) {
  core::EngineConfig cfg;
  cfg.cluster.num_nodes = 8;
  cfg.variant = core::SystemVariant::Whale();
  cfg.seed = 42;
  cfg.timeseries_bin = bin;
  cfg.enable_acking = true;
  cfg.ack_timeout = ms(120);
  // A chain tree (d* = 1) makes every interior endpoint a relay, so the
  // crashed node always has a subtree to re-parent.
  cfg.initial_dstar = 1;
  cfg.self_adjust = false;
  if (crash_at > 0) {
    cfg.faults.crash(/*node=*/2, crash_at, restart_after);
  }
  core::Engine e(cfg, broadcast_topology(/*rate=*/2000.0,
                                         /*tuple_bytes=*/256,
                                         /*parallelism=*/16));
  return e.run(/*warmup=*/ms(100), window);
}

// First bin at/after the crash whose delivery rate recovers to `frac` of
// the pre-crash average; returns the gap in ms (-1 if it never recovers).
double recovery_ms(const core::RunReport& r, Duration warmup, Duration crash,
                   Duration bin, double frac) {
  const auto& s = r.tput_series;
  const size_t crash_bin = static_cast<size_t>(crash / bin);
  const size_t first_bin = static_cast<size_t>(warmup / bin);
  double pre = 0;
  size_t n = 0;
  for (size_t i = first_bin; i < crash_bin && i < s.num_bins(); ++i) {
    pre += s.bin_rate(i);
    ++n;
  }
  if (n == 0 || pre <= 0) return -1;
  pre /= static_cast<double>(n);
  for (size_t i = crash_bin; i < s.num_bins(); ++i) {
    if (s.bin_rate(i) >= frac * pre) {
      return to_millis(static_cast<Time>(i - crash_bin) * bin);
    }
  }
  return -1;
}

}  // namespace

int main() {
  const Duration bin = ms(10);
  const Duration window = ms(static_cast<int64_t>(
      env_double("WHALE_BENCH_WINDOW_MS", 800)));
  const Duration restart = ms(static_cast<int64_t>(
      env_double("WHALE_BENCH_RESTART_MS", 150)));

  header("fault recovery — relay crash timing vs recovery latency",
         "no paper figure; recovery subsystem characterisation "
         "(tree repair + acker replay)");

  // Baseline without faults, for the steady-state delivery rate.
  const auto base = run_with_crash(0, 0, bin, window);
  std::printf("fault-free baseline: %.0f tuples/s delivered, %llu acked\n",
              base.mcast_throughput_tps,
              (unsigned long long)base.acked_roots);

  std::vector<Point> points;
  for (int64_t at_ms = 200; at_ms + 200 <= to_millis(window) + 100;
       at_ms += 150) {
    const Duration at = ms(at_ms);
    points.push_back({at, run_with_crash(at, restart, bin, window)});
  }

  row({"crash_ms", "repair_ms", "moves", "downtime_ms", "recover80_ms",
       "lost", "failed", "replayed", "replay_done", "acked", "tput_tps"});
  for (const auto& p : points) {
    const auto& r = p.report;
    row({fmt(to_millis(p.crash_at), 0), fmt_ms(to_millis(r.repair_time_max)),
         std::to_string(r.repair_moves),
         fmt(to_millis(r.downtime_total), 0),
         fmt(recovery_ms(r, ms(100), p.crash_at, bin, 0.8), 0),
         std::to_string(r.tuples_lost), std::to_string(r.failed_roots),
         std::to_string(r.replayed_roots),
         std::to_string(r.replay_completions),
         std::to_string(r.acked_roots), fmt_tps(r.mcast_throughput_tps)});
  }

  // Recovery cost summary across the sweep.
  double worst_repair = 0, worst_gap = 0;
  uint64_t total_replays = 0;
  for (const auto& p : points) {
    worst_repair = std::max(worst_repair,
                            to_millis(p.report.repair_time_max));
    worst_gap = std::max(worst_gap,
                         recovery_ms(p.report, ms(100), p.crash_at, bin, 0.8));
    total_replays += p.report.replayed_roots;
  }
  std::printf("\nworst repair %.2f ms, worst 80%%-recovery gap %.0f ms, "
              "%llu roots replayed across the sweep\n",
              worst_repair, worst_gap, (unsigned long long)total_replays);
  return 0;
}

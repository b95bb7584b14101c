// End-to-end benchmark harness: one workload per process.
//
//   whale_bench --workload NAME --seconds S [--seed N] [--layers] [--smoke]
//
// The workloads are defined in make_shape() and listed, with the reason
// each exists, in BENCHMARK.json and README.md.
//
// Prints every metric as "<workload> <metric> <value> <unit>", every
// correctness check as "<workload> check <name> ok|FAIL [detail]", and
// exits 1 when a check fails (2 on a usage error). The harness reads no
// environment variables; the seed is the only input that varies a run.
//
// Without --layers it measures the end-to-end metrics within S seconds of
// host time. It runs each of a fixed number of sub-seeds derived from
// --seed once (their simulated results are pooled), repeats the sub-seeds
// until the time left is what a 2x-overload capacity probe needs, and runs
// that probe; every repeat must reproduce its sub-seed's fingerprint. Host
// timings are medians over every run but the first.
//
// With --layers it reports per-layer metrics instead: the nominal run's
// RunReport counters, a serial-vs-threaded pair (parallel speedup), a
// traced rerun (span statistics, tracing overhead), and host-time probes
// that call into single layers with workload-shaped inputs, again within
// S seconds.
//
// The end-to-end latency quantiles come from wrappers installed around the
// sink and the one-to-many source operators (public Bolt/Spout interfaces),
// not from hooks in the engine: the sink wrapper records the same samples
// as RunReport::processing_latency, unbucketed, and the source wrapper
// counts the one-to-many roots actually emitted in the window.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "apps/ride_hailing_app.h"
#include "apps/stock_app.h"
#include "core/engine.h"
#include "dsps/partitioning.h"
#include "dsps/serde.h"
#include "multicast/tree.h"
#include "sim/simulation.h"
#include "state/state_store.h"

namespace whale::bench {
namespace {

// --- small utilities ---------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated quantile of sorted samples (numpy's default rule).
double quantile(const std::vector<Duration>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) +
         frac * static_cast<double>(sorted[hi] - sorted[lo]);
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- output --------------------------------------------------------------------

std::string g_workload;

void metric(const std::string& name, double v, const char* unit) {
  std::printf("%s %s %.17g %s\n", g_workload.c_str(), name.c_str(), v, unit);
}

// Checks are recorded by name and printed once at the end; a check made on
// several runs passes only if it passed on every one of them, and keeps the
// detail of its first failure.
struct Check {
  std::string name;
  bool ok;
  std::string detail;
};
std::vector<Check> g_checks;

void check(const char* name, bool ok, const std::string& detail = "") {
  for (auto& c : g_checks) {
    if (c.name != name) continue;
    if (c.ok && !ok) c.detail = detail;
    c.ok = c.ok && ok;
    return;
  }
  g_checks.push_back(Check{name, ok, detail});
}

// Prints every check; returns the number that failed.
int print_checks() {
  int failed = 0;
  for (const auto& c : g_checks) {
    failed += !c.ok;
    std::printf("%s check %s %s%s%s\n", g_workload.c_str(), c.name.c_str(),
                c.ok ? "ok" : "FAIL", c.detail.empty() ? "" : " ",
                c.detail.c_str());
  }
  return failed;
}

// --- workloads -----------------------------------------------------------------

// Everything one workload varies. Built into an EngineConfig + topology per
// run so each run starts from identical, freshly constructed inputs.
struct Shape {
  bool stock = false;
  core::SystemVariant variant = core::SystemVariant::Whale();
  int nodes = 30;
  int matching = 480;
  int aggregation = 8;
  int driver_spouts = 2;
  int num_drivers = 20000;
  double all_rate = 0;     // requests/s (ride) or orders/s (stock)
  double driver_rate = 0;  // ride only
  Duration warmup = ms(150);
  Duration window = 0;
  Duration probe_window = ms(300);  // the 2x-overload capacity probe
  int threads = 0;
  // Sub-runs with distinct seeds whose simulated results are pooled: more
  // simulated samples per benchmark run without longer (costlier) windows.
  int subseeds = 4;
  // Offered load above capacity by design: the backlog grows through the
  // window, so the keeps-up check does not apply, and the nominal runs
  // already measure capacity (no probe).
  bool overloaded = false;
  bool exactly_once = false;  // stock: remote incremental state + crash
  Duration restart_after = ms(100);

  Time crash_at() const { return warmup + window / 2; }
};

bool make_shape(const std::string& name, bool smoke, Shape* s) {
  if (name == "ride480-whale") {
    s->all_rate = 9000;
    s->driver_rate = 4000;
    s->window = ms(300);
    s->probe_window = ms(100);
  } else if (name == "ride480-storm") {
    s->variant = core::SystemVariant::Storm();
    // 55% of the source's capacity. At 150 requests/s (70%) Storm's p99 is
    // set by a few arrival bursts and, even pooled over 16 sub-runs, varies
    // by a tenth from seed to seed; the 2x probe still saturates here.
    s->all_rate = 120;
    s->driver_rate = 4000;
    s->window = sec(8);
    s->probe_window = sec(2);
    s->subseeds = 16;
  } else if (name == "cluster300-woc-4t") {
    // fig-cluster300 (300 nodes, 16 driver spouts on 16 nodes, 64
    // aggregators, WOC over RDMA SEND/RECV, 2,000 requests/s: three times
    // what its sequential source sustains) at a quarter of its matching
    // fan-out and driver count, which keeps the source bottleneck and the
    // 300 partitions but cuts set-up time fourfold. On four threads a run
    // costs about 16 host ms per simulated ms whatever the event count
    // (the kernel's synchronisation rounds), so the window is short.
    s->variant = core::SystemVariant::WhaleWoc();
    s->nodes = 300;
    s->matching = 300;
    s->aggregation = 64;
    s->driver_spouts = 16;
    s->num_drivers = 250000;
    s->all_rate = 2000;
    s->driver_rate = 3000;
    s->window = ms(100);
    s->threads = std::min(4, host_cores());
    s->subseeds = 3;
    s->overloaded = true;
  } else if (name == "stock480-exactly-once") {
    s->stock = true;
    s->all_rate = 6000;
    s->window = ms(1000);
    s->exactly_once = true;
  } else {
    return false;
  }
  if (smoke) {
    // Same mechanisms (variant, tree, state, crash and recovery, 300
    // partitions) at a fraction of the fan-out, rates and windows.
    s->matching = s->nodes == 300 ? 300 : 32;
    s->num_drivers = 3000;
    s->all_rate = std::min(s->all_rate, s->stock ? 500.0 : 1000.0);
    s->driver_rate = std::min(s->driver_rate, 500.0);
    s->warmup = ms(20);
    s->window = s->stock ? ms(200) : ms(40);
    s->probe_window = ms(40);
    s->restart_after = ms(30);
    s->subseeds = 1;
  }
  return true;
}

core::EngineConfig make_config(const Shape& s, uint64_t seed) {
  core::EngineConfig cfg;
  cfg.cluster.num_nodes = s.nodes;
  cfg.cluster.cores_per_node = 16;
  cfg.variant = s.variant;
  cfg.seed = seed;
  cfg.sim.threads = s.threads;
  if (s.exactly_once) {
    cfg.state.enabled = true;
    cfg.state.remote = true;
    cfg.state.incremental = true;
    cfg.state.checkpoint_interval = ms(50);
    cfg.timeseries_bin = ms(10);
    cfg.faults.crash(/*node=*/7, s.crash_at(), s.restart_after);
  }
  return cfg;
}

struct Built {
  dsps::Topology topo;
  int all_stream = -1;  // the one-to-many stream under study
  int sink_op = -1;
};

Built build_app(const Shape& s, double rate_mult) {
  Built b;
  if (s.stock) {
    apps::StockAppParams p;
    p.matching_parallelism = s.matching;
    p.aggregation_parallelism = s.aggregation;
    p.order_rate = dsps::RateProfile::constant(s.all_rate * rate_mult);
    auto app = apps::build_stock_exchange(p);
    b.topo = std::move(app.topology);
    b.all_stream = app.all_grouped_stream;
    b.sink_op = app.sink_op;
  } else {
    apps::RideHailingAppParams p;
    p.matching_parallelism = s.matching;
    p.aggregation_parallelism = s.aggregation;
    p.driver_spout_parallelism = s.driver_spouts;
    p.workload.num_drivers = s.num_drivers;
    p.request_rate = dsps::RateProfile::constant(s.all_rate * rate_mult);
    p.driver_rate = dsps::RateProfile::constant(s.driver_rate);
    auto app = apps::build_ride_hailing(p);
    b.topo = std::move(app.topology);
    b.all_stream = app.all_grouped_stream;
    b.sink_op = app.sink_op;
  }
  return b;
}

// --- operator taps ------------------------------------------------------------

// Harness-side records of one run. Factories run on the constructing thread;
// afterwards each wrapper writes only its own slot, so parallel partitions
// never share one.
struct Taps {
  core::Engine* engine = nullptr;  // set once the engine is constructed
  Time win_start = 0;
  Time win_end = 0;
  std::deque<std::vector<Duration>> latency;  // per sink instance
  std::deque<uint64_t> emitted;               // per source instance

  Time now() const { return engine->simulation().now(); }
  bool in_window() const {
    const Time t = now();
    return t >= win_start && t < win_end;
  }
};

// Sink wrapper: root emit -> sink execute, in-window, exactly as the engine
// samples processing latency (it adds the sample right before execute()).
class SinkTap final : public dsps::Bolt {
 public:
  SinkTap(std::unique_ptr<dsps::Bolt> inner, Taps* taps,
          std::vector<Duration>* out)
      : inner_(std::move(inner)), taps_(taps), out_(out) {}
  void prepare(const dsps::TaskContext& c) override { inner_->prepare(c); }
  Duration execute(const dsps::Tuple& t, dsps::Emitter& out) override {
    if (taps_->in_window()) out_->push_back(taps_->now() - t.root_emit_time);
    return inner_->execute(t, out);
  }
  void register_state(state::StateStore& s) override {
    inner_->register_state(s);
  }
  void rescaled(const dsps::TaskContext& c) override { inner_->rescaled(c); }

 private:
  std::unique_ptr<dsps::Bolt> inner_;
  Taps* taps_;
  std::vector<Duration>* out_;
};

// Source wrapper: counts in-window emissions onto the one-to-many stream.
class SpoutTap final : public dsps::Spout {
 public:
  SpoutTap(std::unique_ptr<dsps::Spout> inner, Taps* taps, uint64_t* count)
      : inner_(std::move(inner)), taps_(taps), count_(count) {}
  void prepare(const dsps::TaskContext& c) override { inner_->prepare(c); }
  dsps::Tuple next(Rng& rng) override {
    if (taps_->in_window()) ++*count_;
    return inner_->next(rng);
  }
  Duration emit_cost() const override { return inner_->emit_cost(); }
  void register_state(state::StateStore& s) override {
    inner_->register_state(s);
  }

 private:
  std::unique_ptr<dsps::Spout> inner_;
  Taps* taps_;
  uint64_t* count_;
};

void install_taps(Built& b, Taps* taps) {
  auto& sink = b.topo.ops[static_cast<size_t>(b.sink_op)];
  sink.bolt_factory = [inner = sink.bolt_factory, taps] {
    auto* slot = &taps->latency.emplace_back();
    return std::make_unique<SinkTap>(inner(), taps, slot);
  };
  // Only the ride-hailing request spout needs counting: the keeps-up check
  // does not apply to the stock workload, whose source is the split bolt.
  auto& src = b.topo.ops[static_cast<size_t>(
      b.topo.streams[static_cast<size_t>(b.all_stream)].from_op)];
  if (src.is_spout) {
    src.spout_factory = [inner = src.spout_factory, taps] {
      auto* slot = &taps->emitted.emplace_back(0);
      return std::make_unique<SpoutTap>(inner(), taps, slot);
    };
  }
}

// --- one engine run --------------------------------------------------------------

struct RunOpts {
  double rate_mult = 1.0;
  int threads = -1;           // -1: the shape's own thread count
  uint64_t trace_stride = 0;  // 0: tracing off
};

// Lifecycle spans the traced pass summarizes, with the metric prefix each
// one reports under.
constexpr std::pair<const char*, const char*> kSpans[] = {
    {"serialize", "dsps.serialize"},
    {"dispatch", "core.dispatch"},
    {"relay.forward", "multicast.relay"},
    {"rdma_transfer", "rdma.transfer"},
    {"bolt.execute", "workloads.execute"},
    {"sink", "workloads.sink"},
    {"checkpoint", "state.checkpoint"},
    {"mcast.repair", "multicast.repair"},
};
constexpr size_t kNumSpans = sizeof(kSpans) / sizeof(kSpans[0]);

struct RunResult {
  double topology_s = 0;  // apps::build_*
  double engine_s = 0;    // Engine constructor
  double wall_s = 0;      // Engine::run
  core::RunReport report;
  std::vector<Duration> latency;  // sorted sink latency samples
  uint64_t all_emitted = 0;
  bool engaged = false;
  int partitions = 0;
  int mcast_endpoints = 0;
  std::string fingerprint;
  // Traced runs only.
  std::vector<Duration> spans[kNumSpans];
  uint64_t trace_dropped = 0;

  double setup_s() const { return topology_s + engine_s; }
};

RunResult run_once(const Shape& s, uint64_t seed, const RunOpts& o) {
  RunResult r;
  core::EngineConfig cfg = make_config(s, seed);
  if (o.threads >= 0) cfg.sim.threads = o.threads;
  if (o.trace_stride > 0) {
    cfg.obs.tracing_enabled = true;
    cfg.obs.trace_sample_stride = o.trace_stride;
  }
  Taps taps;
  taps.win_start = s.warmup;
  taps.win_end = s.warmup + s.window;

  const double t0 = now_s();
  Built b = build_app(s, o.rate_mult);
  const double t1 = now_s();
  install_taps(b, &taps);
  core::Engine e(cfg, std::move(b.topo));
  const double t2 = now_s();
  taps.engine = &e;
  r.report = e.run(s.warmup, s.window);
  const double t3 = now_s();

  r.topology_s = t1 - t0;
  r.engine_s = t2 - t1;
  r.wall_s = t3 - t2;
  for (const auto& v : taps.latency) {
    r.latency.insert(r.latency.end(), v.begin(), v.end());
  }
  std::sort(r.latency.begin(), r.latency.end());
  r.all_emitted = std::accumulate(taps.emitted.begin(), taps.emitted.end(),
                                  uint64_t{0});
  r.engaged = e.parallel();
  r.partitions = r.report.parallel.num_partitions;
  if (e.num_mcast_groups() > 0) {
    r.mcast_endpoints = e.group_tree(0).num_destinations();
  }
  r.fingerprint = hex64(fnv1a(r.report.fingerprint()));
  if (o.trace_stride > 0) {
    for (const auto& ev : e.tracer().events()) {
      if (ev.ph != 'X') continue;
      for (size_t i = 0; i < kNumSpans; ++i) {
        if (std::strcmp(ev.name, kSpans[i].first) == 0) {
          r.spans[i].push_back(ev.dur);
          break;
        }
      }
    }
    for (auto& v : r.spans) std::sort(v.begin(), v.end());
    r.trace_dropped = e.tracer().dropped();
  }
  return r;
}

// Build + construct only (the timed set-up of one run), for extra set-up
// samples when a workload's runs are too long to give enough of them.
double setup_once(const Shape& s, uint64_t seed) {
  const double t0 = now_s();
  Built b = build_app(s, 1.0);
  core::Engine e(make_config(s, seed), std::move(b.topo));
  return now_s() - t0;
}

// --- end-to-end pass ---------------------------------------------------------------

// First 10 ms throughput bin at/after the crash that is back at `frac` of
// the pre-crash average delivery rate (bench_checkpoint_recovery's
// recovery_ms); -1 if it never recovers inside the window.
double recovery_ms(const core::RunReport& r, Duration warmup, Time crash,
                   double frac) {
  const auto& ts = r.tput_series;
  const Duration bin = ts.bin_width();
  const size_t crash_bin = static_cast<size_t>(crash / bin);
  double pre = 0;
  size_t n = 0;
  for (size_t i = static_cast<size_t>(warmup / bin);
       i < crash_bin && i < ts.num_bins(); ++i) {
    pre += ts.bin_rate(i);
    ++n;
  }
  if (n == 0 || pre <= 0) return -1;
  pre /= static_cast<double>(n);
  for (size_t i = crash_bin; i < ts.num_bins(); ++i) {
    if (ts.bin_rate(i) >= frac * pre) {
      return to_millis(static_cast<Time>(i - crash_bin) * bin);
    }
  }
  return -1;
}

uint64_t failures(const core::RunReport& r) {
  return r.input_drops + r.queue_rejects + r.failed_roots;
}

// Checks every nominal run must pass, whichever pass produced it.
void check_nominal(const Shape& s, const RunResult& r) {
  const auto& rep = r.report;
  check("harness_matches_engine",
        r.latency.size() == rep.processing_latency.count(),
        std::to_string(r.latency.size()) + " vs " +
            std::to_string(rep.processing_latency.count()));
  check("no_failures", failures(rep) == 0,
        "drops=" + std::to_string(rep.input_drops) +
            " rejects=" + std::to_string(rep.queue_rejects) +
            " failed=" + std::to_string(rep.failed_roots));
  // The system keeps up: fully delivered one-to-many roots against those
  // actually emitted in the window (not the nominal rate, whose Poisson
  // noise over a short window would make the check flaky). Not checked
  // under overload, nor across a crash, where delivery dips by design (the
  // recovery check below covers that case).
  if (!s.overloaded && !s.exactly_once) {
    const double emitted_tps =
        static_cast<double>(r.all_emitted) / to_seconds(s.window);
    check("keeps_up", rep.mcast_throughput_tps >= 0.95 * emitted_tps,
          std::to_string(rep.mcast_throughput_tps) + " vs emitted " +
              std::to_string(emitted_tps));
  }
  if (s.threads >= 2) {
    check("parallel_engaged", r.engaged && r.partitions == s.nodes,
          std::to_string(r.partitions) + " partitions");
  }
  if (s.exactly_once) {
    check("one_recovery", rep.checkpoint_recoveries == 1,
          std::to_string(rep.checkpoint_recoveries));
    check("epochs_committed", rep.epochs_completed > 0,
          std::to_string(rep.epochs_completed));
    check("no_exhausted_replays", rep.replays_exhausted == 0,
          std::to_string(rep.replays_exhausted));
    const double rec = recovery_ms(rep, s.warmup, s.crash_at(), 0.8);
    check("recovers_in_window", rec >= 0, std::to_string(rec) + " ms");
  }
}

// Seed of the k-th sub-run of a benchmark seed: distinct inputs per (seed,
// k), identical on every invocation with the same seed.
uint64_t sub_seed(uint64_t seed, int k) {
  return seed * 1000 + static_cast<uint64_t>(k);
}

void end_to_end(const Shape& s, uint64_t seed, double seconds) {
  const double start = now_s();
  const double deadline = start + seconds;
  const int subs = s.subseeds;
  // Every run but the first (a warm-up) is a host-time sample.
  std::vector<double> walls, rates, setups;
  double run_cost = 0;  // the costliest run so far, set-up included
  auto sample = [&](const RunResult& r, bool warm_up) {
    run_cost = std::max(run_cost, r.setup_s() + r.wall_s);
    if (warm_up) return;
    walls.push_back(r.wall_s);
    rates.push_back(static_cast<double>(r.report.sim_events) / r.wall_s);
    setups.push_back(r.setup_s());
  };

  // The first run of each sub-seed feeds the pooled simulated metrics.
  std::vector<RunResult> firsts;
  for (int k = 0; k < subs; ++k) {
    firsts.push_back(run_once(s, sub_seed(seed, k), RunOpts{}));
    sample(firsts.back(), k == 0);
  }
  const double rss = peak_rss_mb();
  while (setups.size() < 5) setups.push_back(setup_once(s, sub_seed(seed, 0)));

  // The capacity probe runs last: its backlogs grow the process's buffer
  // and slab pools, and nominal runs after it ran 10-20% slower. Its cost
  // is guessed from the nominal runs' (twice the input over its simulated
  // time).
  const double probe_cost =
      s.overloaded ? 0.0
                   : run_cost * 2 * to_seconds(s.warmup + s.probe_window) /
                         to_seconds(s.warmup + s.window);

  // Repeats until the time is spent (at least one): more host samples,
  // each of which must reproduce its sub-seed's fingerprint.
  int runs = subs;
  bool same = true;
  do {
    const int k = runs % subs;
    const RunResult r = run_once(s, sub_seed(seed, k), RunOpts{});
    sample(r, false);
    same = same && r.fingerprint == firsts[static_cast<size_t>(k)].fingerprint;
    ++runs;
  } while (now_s() + run_cost + probe_cost < deadline);

  // Capacity: delivered one-to-many rate at twice the nominal input rate
  // (the probe step of bench_util.h's run_at_sustainable_rate). Serial,
  // since the parallel kernel reproduces serial results exactly, and over
  // a shorter window: a saturated bottleneck delivers at a steady rate.
  double probe_tps = 0;
  if (!s.overloaded) {
    Shape probe_shape = s;
    probe_shape.window = s.probe_window;
    probe_tps = run_once(probe_shape, sub_seed(seed, 0), RunOpts{2.0, 1, 0})
                    .report.mcast_throughput_tps;
  }

  std::vector<Duration> latency;
  double tput = 0, mcast_ns = 0;
  uint64_t mcast_n = 0, attempted = 0, failed = 0;
  std::vector<double> recovery;
  std::string fingerprints;
  for (const auto& r : firsts) {
    const auto& rep = r.report;
    latency.insert(latency.end(), r.latency.begin(), r.latency.end());
    tput += rep.mcast_throughput_tps / subs;
    mcast_ns += rep.multicast_latency.mean_ns() *
                static_cast<double>(rep.multicast_latency.count());
    mcast_n += rep.multicast_latency.count();
    attempted += rep.roots_emitted;
    failed += failures(rep);
    if (s.exactly_once) {
      recovery.push_back(recovery_ms(rep, s.warmup, s.crash_at(), 0.8));
    }
    fingerprints += r.fingerprint;
    check_nominal(s, r);
  }
  std::sort(latency.begin(), latency.end());

  std::printf("# run walls (s):");
  for (double w : walls) std::printf(" %.4f", w);
  std::printf("\n# elapsed %.2f s of %g\n", now_s() - start, seconds);
  metric("wall_s", median(walls), "s");
  metric("events_per_s", median(rates), "1/s");
  metric("setup_s", median(setups), "s");
  metric("peak_rss_mb", rss, "MB");
  metric("sim_tput_tps", tput, "1/s");
  metric("sim_latency_p50_ms", quantile(latency, 0.50) / 1e6, "ms");
  metric("sim_latency_p99_ms", quantile(latency, 0.99) / 1e6, "ms");
  metric("sim_mcast_latency_avg_ms",
         mcast_n ? mcast_ns / static_cast<double>(mcast_n) / 1e6 : 0.0, "ms");
  metric("sim_capacity_tps", s.overloaded ? tput : probe_tps, "1/s");
  metric("sim_latency_samples", static_cast<double>(latency.size()), "count");
  metric("sim_fail_frac",
         attempted ? static_cast<double>(failed) /
                         static_cast<double>(attempted)
                   : 0.0,
         "frac");
  if (s.exactly_once) metric("sim_recovery_ms", median(recovery), "ms");
  metric("runs", runs, "count");
  metric("sub_seeds", subs, "count");
  metric("attempted", static_cast<double>(attempted), "count");
  metric("failed", static_cast<double>(failed), "count");
  std::printf("%s fingerprint %s fnv1a\n", g_workload.c_str(),
              hex64(fnv1a(fingerprints)).c_str());
  check("deterministic", same, std::to_string(runs) + " runs");
}

// --- per-layer pass ------------------------------------------------------------------

// Tuples drawn from the workload's spouts, in proportion to their rates.
std::vector<dsps::Tuple> spout_tuples(const dsps::Topology& topo,
                                      uint64_t seed, size_t n) {
  double total = 0;
  for (const auto& op : topo.ops) {
    if (op.is_spout) total += op.rate.rate_at(0);
  }
  std::vector<dsps::Tuple> out;
  Rng rng(seed);
  for (const auto& op : topo.ops) {
    if (!op.is_spout || total <= 0) continue;
    auto spout = op.spout_factory();
    spout->prepare(dsps::TaskContext{});
    const size_t k = static_cast<size_t>(
        std::ceil(static_cast<double>(n) * op.rate.rate_at(0) / total));
    for (size_t i = 0; i < k; ++i) {
      dsps::Tuple t = spout->next(rng);
      t.stream = static_cast<uint32_t>(op.out_streams.front());
      t.root_id = out.size() + 1;
      t.root_emit_time = static_cast<Time>(out.size()) * 1000;
      out.push_back(std::move(t));
    }
  }
  return out;
}

// Host-time probes: each call times one layer API over workload-shaped
// inputs and returns nanoseconds per operation (or the probe's own unit).
struct Probes {
  dsps::Topology topo;
  std::vector<dsps::Tuple> tuples;
  int dst_op = 0;  // destination operator of the one-to-many stream
  // The point-to-point stream with the widest destination operator.
  int route_stream = -1;
  // Worker-oriented variants encode BatchTuple messages carrying the ids of
  // every destination instance on the target worker.
  bool batch = false;
  int batch_dsts = 1;
  int mcast_endpoints = 1;

  Probes(const Shape& s, uint64_t seed, int endpoints)
      : mcast_endpoints(std::max(1, endpoints)) {
    Built b = build_app(s, 1.0);
    topo = std::move(b.topo);
    tuples = spout_tuples(topo, seed, 4096);
    dst_op = topo.streams[static_cast<size_t>(b.all_stream)].to_op;
    int widest = 0;
    for (const auto& st : topo.streams) {
      const int n = topo.ops[static_cast<size_t>(st.to_op)].parallelism;
      if (st.grouping != dsps::Grouping::kAll && n > widest) {
        widest = n;
        route_stream = st.id;
      }
    }
    batch = s.variant.comm == core::CommMode::kWorker;
    if (batch) batch_dsts = std::max(1, s.matching / s.nodes);
  }

  // setup.prepare_s: every factory plus prepare(), as the engine does.
  double prepare_s() const {
    const double t0 = now_s();
    int task = 0;
    for (size_t op = 0; op < topo.ops.size(); ++op) {
      const auto& spec = topo.ops[op];
      for (int i = 0; i < spec.parallelism; ++i) {
        dsps::TaskContext ctx;
        ctx.task_id = task++;
        ctx.op = static_cast<int>(op);
        ctx.instance_index = i;
        ctx.parallelism = spec.parallelism;
        if (spec.is_spout) {
          spec.spout_factory()->prepare(ctx);
        } else {
          spec.bolt_factory()->prepare(ctx);
        }
      }
    }
    return now_s() - t0;
  }

  std::pair<double, double> serde_ns() const {
    std::vector<int32_t> dsts(static_cast<size_t>(batch_dsts));
    std::iota(dsts.begin(), dsts.end(), 0);
    std::vector<std::vector<uint8_t>> enc(tuples.size());
    const double t0 = now_s();
    for (size_t i = 0; i < tuples.size(); ++i) {
      enc[i] = batch
                   ? dsps::TupleSerde::encode_batch_message(dsts, tuples[i])
                   : dsps::TupleSerde::encode_instance_message(7, tuples[i]);
    }
    const double t1 = now_s();
    uint64_t check = 0;
    for (const auto& bytes : enc) {
      if (batch) {
        check += dsps::TupleSerde::decode_batch_message(bytes).tuple.root_id;
      } else {
        check += dsps::TupleSerde::decode_instance_message(bytes).tuple.root_id;
      }
    }
    const double t2 = now_s();
    if (check == 0) std::abort();
    const double n = static_cast<double>(tuples.size());
    return {(t1 - t0) * 1e9 / n, (t2 - t1) * 1e9 / n};
  }

  // Routes every spout tuple: strategies read only the key field, which
  // every spout tuple of both applications carries.
  double route_ns() const {
    const auto& st = topo.streams[static_cast<size_t>(route_stream)];
    auto strategy = dsps::make_strategy(st);
    const size_t n = static_cast<size_t>(
        topo.ops[static_cast<size_t>(st.to_op)].parallelism);
    constexpr int kReps = 8;
    size_t acc = 0;
    const double t0 = now_s();
    for (int rep = 0; rep < kReps; ++rep) {
      for (const auto& t : tuples) acc += strategy->select(t, n);
    }
    const double t1 = now_s();
    if (acc == SIZE_MAX) std::abort();
    return (t1 - t0) * 1e9 / static_cast<double>(kReps * tuples.size());
  }

  double tree_build_us() const {
    constexpr int kBuilds = 200;
    int depth = 0;
    const double t0 = now_s();
    for (int i = 0; i < kBuilds; ++i) {
      depth += multicast::MulticastTree::build_nonblocking(mcast_endpoints, 3)
                   .depth();
    }
    const double t1 = now_s();
    if (depth < 0) std::abort();
    return (t1 - t0) * 1e6 / kBuilds;
  }

  // state.snapshot_{full,delta}_ns and state.restore_ns on instance 0 of the
  // one-to-many destination operator after it processed the spout tuples.
  struct StateNs {
    double full = 0, delta = 0, restore = 0;
  };
  StateNs state_ns() const {
    const auto& spec = topo.ops[static_cast<size_t>(dst_op)];
    auto bolt = spec.bolt_factory();
    dsps::TaskContext ctx;
    ctx.op = dst_op;
    ctx.parallelism = spec.parallelism;
    bolt->prepare(ctx);
    state::StateStore store;
    bolt->register_state(store);
    const size_t half = tuples.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      dsps::Emitter em;
      bolt->execute(tuples[i], em);
    }
    store.snapshot_delta(256, /*force_full=*/true);
    store.commit_baseline();
    for (size_t i = half; i < tuples.size(); ++i) {
      dsps::Emitter em;
      bolt->execute(tuples[i], em);
    }
    constexpr int kReps = 20;
    size_t bytes = 0;
    const double t0 = now_s();
    std::vector<uint8_t> image;
    for (int i = 0; i < kReps; ++i) {
      image = store.snapshot();
      bytes += image.size();
    }
    const double t1 = now_s();
    for (int i = 0; i < kReps; ++i) {
      bytes += store.snapshot_delta(256, false).size();
    }
    const double t2 = now_s();
    for (int i = 0; i < kReps; ++i) store.restore(image);
    const double t3 = now_s();
    if (bytes == 0) std::abort();
    return {(t1 - t0) * 1e9 / kReps, (t2 - t1) * 1e9 / kReps,
            (t3 - t2) * 1e9 / kReps};
  }
};

// The event kernel alone (schedule + dispatch, nothing simulated): 64
// self-rescheduling chains, as many pending events as a busy cluster keeps.
double kernel_ns_per_event() {
  struct Chain {
    sim::Simulation* sim;
    uint64_t left;
    void operator()() {
      if (--left > 0) sim->schedule_after(1, *this);
    }
  };
  sim::Simulation sim;
  for (int k = 0; k < 64; ++k) sim.schedule_at(k, Chain{&sim, 10000});
  const double t0 = now_s();
  sim.run();
  return (now_s() - t0) * 1e9 / static_cast<double>(sim.events_processed());
}

// Trace stride sized so the tracer's buffer holds every sampled span: about
// one buffered span per simulated event at stride 1, halved for margin, and
// coprime with the spout-instance count so every spout's roots are sampled.
uint64_t trace_stride_for(const core::RunReport& nominal, int spout_instances,
                          size_t cap) {
  uint64_t stride = std::max<uint64_t>(
      1, (2 * nominal.sim_events + cap - 1) / cap);
  while (std::gcd(stride, static_cast<uint64_t>(spout_instances)) != 1) {
    ++stride;
  }
  return stride;
}

void layers(const Shape& s, uint64_t seed, double seconds) {
  const double deadline = now_s() + seconds;
  const uint64_t run_seed = sub_seed(seed, 0);
  const int threads = std::min(4, host_cores());
  const RunResult serial = run_once(s, run_seed, RunOpts{1.0, 1, 0});
  const RunResult threaded = run_once(s, run_seed, RunOpts{1.0, threads, 0});
  const RunResult& nominal = s.threads >= 2 ? threaded : serial;
  const auto& r = nominal.report;
  const Probes probes(s, seed, nominal.mcast_endpoints);

  int spout_instances = 0;
  for (const auto& op : probes.topo.ops) {
    if (op.is_spout) spout_instances += op.parallelism;
  }
  const size_t cap = obs::ObsConfig{}.max_trace_events;
  uint64_t stride = trace_stride_for(r, spout_instances, cap);
  RunResult traced = run_once(s, run_seed, RunOpts{1.0, 1, stride});
  for (int retry = 0; traced.trace_dropped > 0 && retry < 3; ++retry) {
    stride = trace_stride_for(r, spout_instances, cap / (2u << retry));
    traced = run_once(s, run_seed, RunOpts{1.0, 1, stride});
  }

  // --- RunReport counters of the nominal run ---
  metric("core.src_busy_frac", r.src_utilization, "frac");
  double cpu_total = 0;
  for (double v : r.src_cpu_seconds) cpu_total += v;
  for (auto c : {sim::CpuCategory::kSerialization, sim::CpuCategory::kProtocol,
                 sim::CpuCategory::kRdmaPost, sim::CpuCategory::kDispatch,
                 sim::CpuCategory::kAppLogic}) {
    const double v = r.src_cpu_seconds[static_cast<size_t>(c)];
    metric(std::string("core.src_cpu_share.") + sim::to_string(c),
           cpu_total > 0 ? v / cpu_total : 0.0, "frac");
  }
  metric("core.downstream_busy_frac", r.downstream_utilization_avg, "frac");
  metric("core.transfer_queue_avg", r.transfer_queue_avg, "count");
  metric("core.transfer_queue_max", static_cast<double>(r.transfer_queue_max),
         "count");
  metric("core.comm_time_p50_ms", to_millis(r.comm_time.p50()), "ms");
  metric("net.bytes_tcp", static_cast<double>(r.bytes_tcp), "B");
  metric("net.bytes_rdma", static_cast<double>(r.bytes_rdma), "B");
  metric("net.src_node_bytes", static_cast<double>(r.src_node_bytes), "B");
  metric("multicast.dstar_final", r.final_dstar, "count");
  metric("multicast.switches", static_cast<double>(r.switches_completed),
         "count");
  metric("multicast.repairs", static_cast<double>(r.tree_repairs), "count");
  metric("multicast.repair_ms", to_millis(r.repair_time_total), "ms");
  metric("state.epochs", static_cast<double>(r.epochs_completed), "count");
  metric("state.epoch_aborts", static_cast<double>(r.epochs_aborted), "count");
  metric("state.checkpoint_bytes", static_cast<double>(r.checkpoint_bytes),
         "B");
  metric("state.remote_write_bytes", static_cast<double>(r.remote_write_bytes),
         "B");
  metric("state.remote_read_bytes", static_cast<double>(r.remote_read_bytes),
         "B");
  metric("state.align_stall_ms", to_millis(r.align_stall_total), "ms");
  metric("state.epoch_ms_avg", to_millis(r.epoch_duration_avg), "ms");
  const uint64_t cells = r.state_dirty_cells + r.state_clean_cells;
  metric("state.dirty_ratio",
         cells ? static_cast<double>(r.state_dirty_cells) /
                     static_cast<double>(cells)
               : 0.0,
         "frac");
  metric("state.recoveries", static_cast<double>(r.checkpoint_recoveries),
         "count");
  metric("state.replays", static_cast<double>(r.checkpoint_replays), "count");
  metric("state.recovery_ms",
         s.exactly_once
             ? std::max(0.0, recovery_ms(r, s.warmup, s.crash_at(), 0.8))
             : 0.0,
         "ms");
  metric("faults.tuples_lost", static_cast<double>(r.tuples_lost), "count");
  metric("faults.downtime_ms", to_millis(r.downtime_total), "ms");
  double imbalance = 0;
  for (const auto& sr : r.stream_routing) {
    imbalance = std::max(imbalance, sr.imbalance);
  }
  metric("dsps.stream_imbalance_max", imbalance, "ratio");
  metric("sim.events", static_cast<double>(r.sim_events), "count");
  metric("sim.ns_per_event",
         nominal.wall_s * 1e9 / static_cast<double>(r.sim_events), "ns");

  // --- parallel kernel ---
  metric("sim.threads", threads, "count");
  metric("sim.parallel_partitions", threaded.partitions, "count");
  metric("sim.parallel_speedup", serial.wall_s / threaded.wall_s, "ratio");

  // --- traced pass (tracing forces the serial kernel) ---
  for (size_t i = 0; i < kNumSpans; ++i) {
    const std::string p = kSpans[i].second;
    const auto& v = traced.spans[i];
    metric(p + "_spans", static_cast<double>(v.size()), "count");
    metric(p + "_us_p50", quantile(v, 0.50) / 1e3, "us");
    metric(p + "_us_p99", quantile(v, 0.99) / 1e3, "us");
  }
  metric("obs.trace_stride", static_cast<double>(stride), "count");
  metric("obs.trace_dropped", static_cast<double>(traced.trace_dropped),
         "count");
  metric("obs.trace_overhead_frac", traced.wall_s / serial.wall_s - 1.0,
         "frac");

  // --- host-time probes: rounds until the time is spent (at least one) ---
  const std::vector<double> topo_s = {serial.topology_s, threaded.topology_s,
                                      traced.topology_s};
  const std::vector<double> engine_s = {serial.engine_s, threaded.engine_s,
                                        traced.engine_s};
  std::vector<double> prep_s, enc, dec, route, tree, full, delta, restore,
      kernel;
  double round_cost = 0;
  do {
    const double t0 = now_s();
    prep_s.push_back(probes.prepare_s());
    const auto [e, d] = probes.serde_ns();
    enc.push_back(e);
    dec.push_back(d);
    route.push_back(probes.route_ns());
    tree.push_back(probes.tree_build_us());
    const auto st = probes.state_ns();
    full.push_back(st.full);
    delta.push_back(st.delta);
    restore.push_back(st.restore);
    kernel.push_back(kernel_ns_per_event());
    round_cost = std::max(round_cost, now_s() - t0);
  } while (now_s() + round_cost < deadline);
  metric("setup.topology_s", median(topo_s), "s");
  metric("setup.prepare_s", median(prep_s), "s");
  metric("setup.engine_s", median(engine_s), "s");
  metric("dsps.serde_encode_ns", median(enc), "ns");
  metric("dsps.serde_decode_ns", median(dec), "ns");
  metric("dsps.route_ns", median(route), "ns");
  metric("multicast.tree_build_us", median(tree), "us");
  metric("state.snapshot_full_ns", median(full), "ns");
  metric("state.snapshot_delta_ns", median(delta), "ns");
  metric("state.restore_ns", median(restore), "ns");
  metric("sim.kernel_ns_per_event", median(kernel), "ns");
  metric("attempted", static_cast<double>(r.roots_emitted), "count");
  metric("failed", static_cast<double>(failures(r)), "count");
  std::printf("%s fingerprint %s fnv1a\n", g_workload.c_str(),
              nominal.fingerprint.c_str());

  check_nominal(s, nominal);
  check("serial_equals_parallel", serial.fingerprint == threaded.fingerprint,
        serial.fingerprint + " vs " + threaded.fingerprint);
  check("tracing_inert", traced.fingerprint == serial.fingerprint,
        traced.fingerprint + " vs " + serial.fingerprint);
  check("trace_complete", traced.trace_dropped == 0,
        std::to_string(traced.trace_dropped) + " dropped");
}

int usage() {
  std::fprintf(stderr,
               "usage: whale_bench --workload NAME --seconds S [--seed N] "
               "[--layers] [--smoke]\n");
  return 2;
}

}  // namespace
}  // namespace whale::bench

int main(int argc, char** argv) {
  using namespace whale::bench;
  std::string workload;
  uint64_t seed = 42;
  double seconds = -1;
  bool layers_pass = false, smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--layers") {
      layers_pass = true;
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }
  Shape shape;
  if (seconds < 0 || !make_shape(workload, smoke, &shape)) return usage();
  g_workload = workload;
  std::printf("# workload=%s seed=%llu seconds=%g pass=%s%s host_cores=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed), seconds,
              layers_pass ? "layers" : "end_to_end", smoke ? " smoke" : "",
              host_cores());
  metric("host_cores", host_cores(), "count");
  metric("threads", std::max(1, shape.threads), "count");
  if (layers_pass) {
    layers(shape, seed, seconds);
  } else {
    end_to_end(shape, seed, seconds);
  }
  return print_checks() == 0 ? 0 : 1;
}

// Skew-adaptive partitioning benchmark (DESIGN.md §11, EXPERIMENTS.md).
//
// The stock-exchange topology's trades stream (matching -> aggregation)
// carries Zipf-skewed symbol keys: under key grouping the hot symbol's
// whole trade volume lands on one aggregation instance. This bench sweeps
// the Zipf exponent and runs the stream under three strategies —
//
//   fields       — classic key grouping (the skew baseline),
//   partial_key  — PKG: two hash candidates per key, less-loaded wins,
//   po2c         — power-of-two-choices shuffle (load-aware, key-oblivious)
//
// — and records, per (skew, strategy) point, the per-instance load spread
// of the trades stream (max/avg instance load and their ratio) plus the
// end-to-end p99 sink latency and delivered throughput. One JSON object on
// stdout, committed as results/BENCH_skew.json and schema-checked by
// tools/validate.py.
//
// Not a paper figure: Whale studies one-to-many (all-grouping) dispatch;
// this characterises the one-to-one partitioning layer added in §11.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace whale;
using namespace whale::bench;

namespace {

// Small-cluster variant of the stock app: parallelism 8 keeps the
// all-grouped validation cost per matching instance low enough that a few
// thousand orders/s saturate nothing, so routing — not backpressure —
// shapes the per-instance loads.
apps::StockAppParams skew_params(double zipf, dsps::Grouping agg) {
  apps::StockAppParams p;
  p.workload.num_symbols = 256;
  p.workload.zipf_exponent = zipf;
  p.workload.validation_fixed_cost = us(10);
  p.workload.validation_per_symbol_cost = ns(500);
  p.matching_parallelism = 8;
  p.aggregation_parallelism = 8;
  p.order_rate = dsps::RateProfile::constant(
      env_double("WHALE_BENCH_RATE", 3000.0));
  p.aggregation_grouping = agg;
  return p;
}

struct Point {
  double zipf = 0;
  std::string strategy;
  uint64_t tuples = 0;
  uint64_t max_instance = 0;
  double avg_instance = 0;
  double imbalance = 0;
  double sink_tps = 0;
  double p99_ms = 0;
  uint64_t queue_rejects = 0;
};

Point run_point(double zipf, dsps::Grouping agg) {
  core::EngineConfig cfg;
  cfg.cluster.num_nodes = 8;
  cfg.variant = core::SystemVariant::Whale();
  cfg.seed = 42;
  cfg.executor_queue_capacity = 65536;
  cfg.transfer_queue_capacity = 65536;

  const apps::BuiltStockApp app =
      apps::build_stock_exchange(skew_params(zipf, agg));
  core::Engine e(cfg, app.topology);
  const Duration warmup = warmup_ms();
  const Duration window =
      ms(static_cast<int64_t>(env_double("WHALE_BENCH_WINDOW_MS", 800)));
  const core::RunReport& r = e.run(warmup, window);

  Point pt;
  pt.zipf = zipf;
  pt.sink_tps = r.sink_throughput_tps;
  pt.p99_ms = static_cast<double>(r.processing_latency.p99()) / 1e6;
  pt.queue_rejects = r.queue_rejects;
  for (const auto& row : r.stream_routing) {
    if (row.stream != app.trades_stream) continue;
    pt.strategy = row.strategy;
    pt.tuples = row.tuples;
    pt.max_instance = row.max_instance;
    pt.avg_instance = row.avg_instance;
    pt.imbalance = row.imbalance;
  }
  return pt;
}

void print_point(const Point& p, bool first) {
  std::printf(
      "%s  {\"zipf\": %.2f, \"strategy\": \"%s\", \"tuples\": %llu, "
      "\"max_instance\": %llu, \"avg_instance\": %.1f, "
      "\"imbalance\": %.4f, \"sink_tps\": %.0f, \"p99_ms\": %.3f, "
      "\"queue_rejects\": %llu}",
      first ? "" : ",\n", p.zipf, p.strategy.c_str(),
      static_cast<unsigned long long>(p.tuples),
      static_cast<unsigned long long>(p.max_instance), p.avg_instance,
      p.imbalance, p.sink_tps, p.p99_ms,
      static_cast<unsigned long long>(p.queue_rejects));
}

}  // namespace

int main() {
  const std::vector<double> zipfs = {0.0, 0.6, 0.9, 1.1, 1.4};
  const std::vector<dsps::Grouping> strategies = {
      dsps::Grouping::kFields, dsps::Grouping::kPartialKey,
      dsps::Grouping::kLoadAwareShuffle};

  std::printf("{\n\"bench\": \"skew\",\n");
  std::printf(
      "\"config\": {\"nodes\": 8, \"num_symbols\": 256, "
      "\"matching_parallelism\": 8, \"aggregation_parallelism\": 8, "
      "\"rate_tps\": %.0f, \"window_ms\": %.0f},\n",
      env_double("WHALE_BENCH_RATE", 3000.0),
      env_double("WHALE_BENCH_WINDOW_MS", 800));

  double fields_high = 0, pkg_high = 0, po2c_high = 0;
  std::printf("\"sweep\": [\n");
  bool first = true;
  for (const double z : zipfs) {
    for (const dsps::Grouping g : strategies) {
      const Point p = run_point(z, g);
      print_point(p, first);
      std::fflush(stdout);
      first = false;
      if (z == 1.1) {
        if (g == dsps::Grouping::kFields) fields_high = p.imbalance;
        if (g == dsps::Grouping::kPartialKey) pkg_high = p.imbalance;
        if (g == dsps::Grouping::kLoadAwareShuffle) po2c_high = p.imbalance;
      }
    }
  }
  std::printf("\n],\n");

  // Headline acceptance: at the paper's trace skew (zipf 1.1), PKG must
  // spread the trades stream strictly better than key grouping.
  std::printf(
      "\"acceptance\": {\"zipf\": 1.1, \"fields_imbalance\": %.4f, "
      "\"partial_key_imbalance\": %.4f, \"po2c_imbalance\": %.4f, "
      "\"pkg_improves\": %s}\n}\n",
      fields_high, pkg_high, po2c_high,
      pkg_high < fields_high ? "true" : "false");
  return 0;
}

// Runs the fig13 ride-hailing workload (Whale variant) with the seeded
// fault plan from the fingerprint suite, with the observability layer fully
// enabled, and writes the files below. The tree starts as a chain (d* = 1),
// so the trace holds a d* switch (`mcast.switch`) beside the crash repairs
// (`mcast.repair`): both kinds of tree change.
//
//   <out>/trace.json    Chrome trace_event JSON — load via chrome://tracing
//                       or https://ui.perfetto.dev
//   <out>/metrics.json  periodic simulated-time metric snapshots + final
//                       counters/histograms (schema in DESIGN.md §9)
//
// Usage: obs_probe [out_dir] [trace_sample_stride]
//
// The default stride of 50 keeps the trace readable (~1 in 50 root tuples
// sampled); recovery/fault spans are always recorded regardless of stride.
// CI runs this and validates the output with tools/validate.py <out_dir>.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "apps/ride_hailing_app.h"
#include "core/engine.h"
#include "faults/plan.h"

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : "results/obs";
  const uint64_t stride =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 50;

  using namespace whale;
  core::EngineConfig cfg;
  cfg.cluster.num_nodes = 8;
  cfg.cluster.cores_per_node = 16;
  cfg.variant = core::SystemVariant::Whale();
  cfg.seed = 42;
  cfg.initial_dstar = 1;
  cfg.enable_acking = true;
  cfg.ack_timeout = ms(120);
  cfg.faults = faults::FaultPlan::random(/*seed=*/7, cfg.cluster.num_nodes,
                                         /*horizon=*/ms(400),
                                         /*num_faults=*/6);
  cfg.obs.metrics_enabled = true;
  cfg.obs.snapshot_interval = ms(10);
  cfg.obs.tracing_enabled = true;
  cfg.obs.trace_sample_stride = stride;

  apps::RideHailingAppParams p;
  p.matching_parallelism = 32;
  p.aggregation_parallelism = 4;
  p.driver_spout_parallelism = 2;
  p.request_rate = dsps::RateProfile::constant(3000);
  p.driver_rate = dsps::RateProfile::constant(2000);

  core::Engine e(cfg, apps::build_ride_hailing(p).topology);
  const auto& r = e.run(ms(100), ms(300));

  std::filesystem::create_directories(out_dir);
  const std::string trace_path = out_dir + "/trace.json";
  const std::string metrics_path = out_dir + "/metrics.json";
  e.tracer().write_json(trace_path);
  e.metrics().write_json(metrics_path);

  std::printf("fingerprint   %s\n", r.fingerprint().c_str());
  std::printf("trace events  %zu (+%zu dropped at cap) -> %s\n",
              e.tracer().events().size(), e.tracer().dropped(),
              trace_path.c_str());
  std::printf("snapshots     %zu -> %s\n", e.metrics().num_snapshots(),
              metrics_path.c_str());
  return 0;
}

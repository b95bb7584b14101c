// Fingerprint-parity gate (promoted to ctest from the manual CI diff).
//
// results/fingerprints_baseline.txt pins the behavioural fingerprint of
// fourteen deterministic workloads: nine with checkpointing off (among them
// `faults/whale-switch-crash`, where a crash aborts a d* switch) and five
// `state/*` probes with it on (`state/elastic-broadcast` also rescales a
// broadcast destination, and `state/crash-before-commit` recovers before
// any epoch has committed). Two properties are enforced here:
//
//  1. A run with the obs layer *disabled* (the default EngineConfig) is
//     bit-identical to the recorded baseline — the observability layer is
//     a passive witness with zero overhead when off.
//  2. Enabling *tracing* (metrics stay off) still matches the baseline:
//     the tracer only records from callbacks that already exist, so it
//     schedules zero extra simulation events and perturbs nothing.
//
// Metrics snapshots DO schedule events (the periodic snapshot loop), so
// metrics-on parity is intentionally not asserted.
#include <fstream>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "apps/fingerprint_suite.h"

namespace {

using whale::apps::FingerprintLine;
using whale::apps::fingerprint_probe_labels;
using whale::apps::run_fingerprint_probe;

std::map<std::string, std::string> load_baseline() {
  const std::string path =
      std::string(WHALE_SOURCE_DIR) + "/results/fingerprints_baseline.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing baseline file: " << path;
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    out[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return out;
}

TEST(FingerprintParity, BaselineCoversEveryProbe) {
  const auto baseline = load_baseline();
  for (const auto& label : fingerprint_probe_labels()) {
    EXPECT_TRUE(baseline.count(label)) << "baseline missing probe " << label;
  }
}

// Property 1: obs disabled == recorded baseline, for every
// probe in the suite.
TEST(FingerprintParity, DisabledObsMatchesBaseline) {
  const auto baseline = load_baseline();
  for (const auto& label : fingerprint_probe_labels()) {
    const FingerprintLine got = run_fingerprint_probe(label);
    auto it = baseline.find(got.label);
    ASSERT_NE(it, baseline.end()) << got.label;
    EXPECT_EQ(got.fingerprint, it->second) << got.label;
  }
}

// Property 2: tracing-on (metrics off) == baseline for the heaviest Whale
// probe, the fault/recovery probe, a checkpoint-recovery probe, the
// switch-under-crash probe and the broadcast-rescale probe. The tracer must never schedule an event, so
// `events=` in the fingerprint cannot move.
TEST(FingerprintParity, TracingOnMatchesBaseline) {
  const auto baseline = load_baseline();
  for (const std::string label :
       {"fig13/whale", "faults/whale-seeded", "state/remote-incremental",
        "faults/whale-switch-crash", "state/elastic-broadcast"}) {
    const FingerprintLine got =
        run_fingerprint_probe(label, [](whale::core::EngineConfig& cfg) {
          cfg.obs.tracing_enabled = true;
          cfg.obs.trace_sample_stride = 1;
        });
    auto it = baseline.find(got.label);
    ASSERT_NE(it, baseline.end()) << got.label;
    EXPECT_EQ(got.fingerprint, it->second) << got.label;
  }
}

// Property 3: the state/checkpointing layer runtime-off is
// bit-identical to the baseline regardless of how its other knobs are set.
// (Property 1 already covers the default-constructed StateConfig; this
// pins that `enabled` alone gates every effect.) The `state/*` probes
// exist to run with checkpointing on, so they are not part of it.
TEST(FingerprintParity, DisabledCheckpointingMatchesBaseline) {
  const auto baseline = load_baseline();
  for (const auto& label : fingerprint_probe_labels()) {
    if (label.rfind("state/", 0) == 0) continue;
    const FingerprintLine got =
        run_fingerprint_probe(label, [](whale::core::EngineConfig& cfg) {
          cfg.state.enabled = false;
          cfg.state.checkpoint_interval = whale::ms(5);
          cfg.state.store_write_latency = whale::ms(50);
        });
    auto it = baseline.find(got.label);
    ASSERT_NE(it, baseline.end()) << got.label;
    EXPECT_EQ(got.fingerprint, it->second) << got.label;
    EXPECT_EQ(got.fingerprint.find("epochs="), std::string::npos) << got.label;
  }
}

}  // namespace

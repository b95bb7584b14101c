// The behavioural fingerprint suite: a fixed set of deterministic
// workloads whose RunReport::fingerprint() lines pin the simulator's
// observable behaviour. Two builds are behaviourally equivalent iff the
// suite's output is bit-identical between them.
//
// Shared by tools/fingerprint_probe (prints the lines; diff against
// results/fingerprints_baseline.txt) and tests/test_fingerprint.cc (the
// ctest parity gate, which also re-runs selected probes with tracing
// enabled to prove the obs layer schedules zero extra events).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/config.h"

namespace whale::apps {

struct FingerprintLine {
  std::string label;        // e.g. "fig13/whale" or "faults/whale-seeded"
  std::string fingerprint;  // RunReport::fingerprint()
};

// Applied to each probe's EngineConfig just before the engine is built;
// used by the parity tests to flip obs knobs without forking the suite.
using ConfigMutator = std::function<void(core::EngineConfig&)>;

// Runs all fourteen probes (fig13 x {storm, rdma-storm, whale-woc, whale},
// fig15 x {storm, rdmc, whale}, faults/whale-seeded, the
// checkpointing-on state x {local-aligned, local-unaligned,
// remote-incremental}, faults/whale-switch-crash, the elastic
// state/elastic-broadcast and state/crash-before-commit) in order.
std::vector<FingerprintLine> run_fingerprint_suite(
    const ConfigMutator& mutate = {});

// Runs the single probe with the given label; throws std::out_of_range on
// an unknown label. Cheaper than the full suite for targeted parity tests.
FingerprintLine run_fingerprint_probe(const std::string& label,
                                      const ConfigMutator& mutate = {});

// All probe labels, in suite order.
std::vector<std::string> fingerprint_probe_labels();

}  // namespace whale::apps

// Observability layer configuration (src/obs).
//
// The obs layer is a passive witness: a MetricsRegistry of named
// counters/gauges/histograms sampled on a simulated-time cadence, and a
// Tracer that records tuple-lifecycle spans in Chrome trace_event form.
// Both are default-off and schedule ZERO simulation events while disabled,
// so an instrumented build is bit-identical to an uninstrumented one (the
// fingerprint-parity gate in tests/test_fingerprint.cc pins this).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/time.h"

namespace whale::obs {

struct ObsConfig {
  // Periodic MetricsRegistry snapshots (queue depths, ring occupancy,
  // per-link bytes, tree out-degree, acker pending set).
  bool metrics_enabled = false;
  Duration snapshot_interval = ms(10);

  // Tuple-lifecycle tracing (root emit -> serialize -> transfer -> relay
  // hops -> dispatch -> sink), sampled by root-tuple id: a root is traced
  // iff root_id % trace_sample_stride == 0. Recovery episodes (tree
  // repairs, fault events) are traced whenever tracing is enabled,
  // independent of the stride.
  bool tracing_enabled = false;
  uint64_t trace_sample_stride = 1;
  // Hard cap on buffered trace events; beyond it events are counted as
  // dropped instead of stored (full-rate runs stay bounded).
  size_t max_trace_events = size_t{1} << 20;
};

}  // namespace whale::obs

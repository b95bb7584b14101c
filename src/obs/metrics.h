// MetricsRegistry: named counters, gauges and latency histograms with
// periodic simulated-time snapshots.
//
// Counters are monotone u64 cells owned by the registry (stable pointers —
// hook sites cache the pointer once and pay a single add on the hot path,
// or skip the hook entirely while the registry is disabled). Gauges are
// pull-style probes evaluated at snapshot time. Every counter and gauge
// contributes one column to the snapshot table; histograms are dumped once
// with their final quantiles.
//
// The JSON dump (written next to RunReport outputs) is column-oriented:
//
//   {
//     "snapshot_interval_ns": N,
//     "times_ns": [t0, t1, ...],
//     "series": {"name": [v0, v1, ...], ...},
//     "counters_final": {"name": v, ...},
//     "histograms": [{"name":..., "count":..., "mean_ns":...,
//                     "p50_ns":..., "p90_ns":..., "p99_ns":..., "max_ns":...}]
//   }
//
// tools/results_to_csv.py converts this into a plottable CSV.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/time.h"
#include "obs/obs.h"

namespace whale::obs {

class Counter {
 public:
  void inc(uint64_t n = 1) { value_ += n; }
  // For end-of-run totals recomputed idempotently (Engine::obs_finalize).
  void set(uint64_t v) { value_ = v; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// A whole-run count kept twice: in its report field and, with metrics on,
// in its counter, both bumped at the event.
struct Tally {
  uint64_t& n;
  Counter* c = nullptr;
  void add(uint64_t k = 1) {
    n += k;
    if (c) c->inc(k);
  }
};

class MetricsRegistry {
 public:
  void configure(bool enabled, Duration snapshot_interval) {
    enabled_ = enabled;
    interval_ = snapshot_interval;
  }
  bool enabled() const { return enabled_; }
  Duration snapshot_interval() const { return interval_; }

  // Find-or-create by name. The returned pointer is stable for the life of
  // the registry.
  Counter* counter(const std::string& name);
  // Registers (or replaces) a pull-style gauge probe.
  void gauge(const std::string& name, std::function<double()> probe);
  LatencyHistogram* histogram(const std::string& name);

  // Appends one row: evaluates every gauge and reads every counter.
  void snapshot(Time now);

  // --- introspection (tests, JSON dump) ---------------------------------
  size_t num_snapshots() const { return times_.size(); }
  Time snapshot_time(size_t i) const { return times_[i]; }
  // Sampled column for a counter/gauge; nullptr when the name is unknown.
  const std::vector<double>* series(const std::string& name) const;
  const Counter* find_counter(const std::string& name) const;

  std::string to_json() const;
  // Returns false if the file could not be opened.
  bool write_json(const std::string& path) const;

 private:
  struct Entry {
    std::string name;
    std::unique_ptr<Counter> counter;  // exactly one of counter/probe set
    std::function<double()> probe;
    std::vector<double> samples;
  };
  struct HistEntry {
    std::string name;
    std::unique_ptr<LatencyHistogram> hist;
  };

  Entry* find_or_create(const std::string& name);

  bool enabled_ = false;
  Duration interval_ = ms(10);
  // Registration order is preserved (deterministic JSON output); the map
  // only accelerates name lookup.
  std::vector<std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, size_t> index_;
  std::vector<HistEntry> hists_;
  std::vector<Time> times_;
};

}  // namespace whale::obs

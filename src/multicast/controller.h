// Queue-based self-adjusting mechanism (Sec. 3.3) and the statistics
// monitoring that feeds it (Sec. 4).
//
// The transfer queue is modeled as a pool with a floor drain: the monitor
// samples the queue length every sample_interval; when the waterline rises
// towards the warning level l_w fast enough, the controller performs a
// *negative scale-down* (reduce the source's out-degree to raise its
// processing rate); when it drains fast enough (or is empty), an *active
// scale-up* (increase the out-degree to shorten the relay tree).
//
// The controller is pure decision logic over samples — the engine owns the
// actual switching protocol (ControlMessages, ACKs, reconnect delay).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/stats.h"
#include "common/time.h"
#include "multicast/queue_model.h"

namespace whale::multicast {

// Measures the stream input rate lambda: counts arrivals per unit time and
// smooths with the paper's alpha-weighted average
//   lambda(t) = alpha * lambda(t-1) + (1 - alpha) * N(t).
class StreamMonitor {
 public:
  StreamMonitor(Duration unit, double alpha) : unit_(unit), ewma_(alpha) {}

  void record_arrival(Time now) {
    roll(now);
    ++count_;
  }

  // Current smoothed rate in tuples/second. Rolls the window first so a
  // quiet period decays the estimate.
  double rate_tps(Time now) {
    roll(now);
    return ewma_.initialized() ? ewma_.value() / to_seconds(unit_) : 0.0;
  }

 private:
  void roll(Time now) {
    while (now >= window_end_) {
      ewma_.add(static_cast<double>(count_));
      count_ = 0;
      window_end_ += unit_;
    }
  }

  Duration unit_;
  Ewma ewma_;
  Time window_end_ = 0;
  uint64_t count_ = 0;
};

// Measures t_e: the per-replica service time at the source (serialize /
// schedule / post for one cascading destination). Averages the recent
// emissions (the paper records multiple tuples and averages).
class ServiceTimeMonitor {
 public:
  explicit ServiceTimeMonitor(double alpha = 0.8) : ewma_(alpha) {}

  void record(Duration per_replica) {
    ewma_.add(static_cast<double>(per_replica));
  }

  bool has_estimate() const { return ewma_.initialized(); }
  Duration estimate() const {
    return static_cast<Duration>(ewma_.value());
  }

 private:
  Ewma ewma_;
};

struct ControllerConfig {
  // Scale-down threshold of Sec. 3.3 (the scale-up one is kTUp).
  double t_down = 0.5;
  // Warning waterline l_w as a fraction of the queue capacity Q.
  double warning_waterline_frac = 0.5;
  // Queue sampling interval (the paper's delta-t).
  Duration sample_interval = ms(10);
};

class SelfAdjustingController {
 public:
  enum class Action { kNone, kScaleDown, kScaleUp };
  // Scale-up threshold of Sec. 3.3 and the lower bound on d*.
  static constexpr double kTUp = 0.5;
  static constexpr int kMinDstar = 1;

  struct Decision {
    Action action = Action::kNone;
    int new_dstar = 0;
  };

  // `queue_capacity` is Q; `num_destinations` bounds d* above by the
  // binomial out-degree (a larger d* cannot help — Thm. 2).
  SelfAdjustingController(ControllerConfig cfg, size_t queue_capacity,
                          int num_destinations, int initial_dstar)
      : cfg_(cfg), capacity_(queue_capacity) {
    reset(num_destinations, initial_dstar);
  }

  // Starts over against a new destination count (a rebuilt tree), keeping
  // only the switch counts and the backlog probe.
  void reset(int num_destinations, int initial_dstar) {
    max_dstar_ = std::max(1, MD1::binomial_out_degree(num_destinations));
    dstar_ = std::clamp(initial_dstar, kMinDstar, max_dstar_);
    have_prev_ = false;
    prev_len_ = 0.0;
    switching_ = false;
  }

  int dstar() const { return dstar_; }
  int max_dstar() const { return max_dstar_; }
  double waterline() const {
    return cfg_.warning_waterline_frac * static_cast<double>(capacity_);
  }

  // Feed one queue-length sample plus the current lambda / t_e estimates;
  // returns the switching decision. The engine must call confirm() once a
  // decided switch has completed (so in-flight switches aren't re-decided).
  Decision on_sample(size_t queue_len, double lambda_tps, Duration te);

  // Optional downstream-backlog probe (DESIGN.md §14): the elastic
  // ScalingController's smoothed executor-backlog fraction for the group's
  // destination operator, in [0, 1]. When installed, each sample sees the
  // *effective* queue length max(raw, probe * Q) — downstream pressure the
  // transfer queue hasn't absorbed yet still counts toward the warning
  // waterline, so d* scale-downs engage before the relay tree amplifies a
  // backlog the rescaler is already fighting. Never installed when the
  // elastic layer is off, keeping the fingerprint contract intact.
  using BacklogProbe = std::function<double()>;
  void set_backlog_probe(BacklogProbe probe) { probe_ = std::move(probe); }

  size_t effective_queue_len(size_t raw) const {
    if (!probe_) return raw;
    double frac = std::clamp(probe_(), 0.0, 1.0);
    auto floor_len = static_cast<size_t>(frac * static_cast<double>(capacity_));
    return std::max(raw, floor_len);
  }

  void confirm(int applied_dstar) {
    dstar_ = applied_dstar;
    switching_ = false;
  }
  void abort_switch() { switching_ = false; }
  bool switching() const { return switching_; }

  uint64_t scale_downs() const { return scale_downs_; }
  uint64_t scale_ups() const { return scale_ups_; }

 private:
  // d* from the queue model, clamped to the useful range.
  int model_dstar(double lambda_tps, Duration te) const;

  ControllerConfig cfg_;
  size_t capacity_;
  int max_dstar_ = 1;
  int dstar_ = 1;
  bool have_prev_ = false;
  double prev_len_ = 0.0;
  bool switching_ = false;
  BacklogProbe probe_;
  uint64_t scale_downs_ = 0;
  uint64_t scale_ups_ = 0;
};

}  // namespace whale::multicast

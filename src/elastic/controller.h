// Gauge-driven scaling decisions (DESIGN.md §14).
//
// One ScalingController per rescalable operator. core::Elastic polls it at
// cfg.elastic.poll_interval with the operator's mean in-queue fill
// fraction; the controller smooths the signal (EWMA), applies the
// hysteresis band and sustain counters, enforces the cooldown, and —
// when all of them agree — issues a RescalePlan. Plans are serialized:
// while one is pending (issued but not yet confirmed or aborted by the
// migration machinery) the controller holds, whatever the gauges say.
// Everything here is driven by simulated time handed in by the caller,
// so decisions are deterministic functions of the run.
#pragma once

#include <algorithm>
#include <optional>

#include "common/time.h"
#include "elastic/elastic.h"

namespace whale::elastic {

// grow(op, +k) / shrink(op, -k): delta is signed instance count.
struct RescalePlan {
  int op = -1;
  int delta = 0;                // > 0 grow, < 0 shrink
  int from = 0;                 // parallelism the plan was issued against
  int to = 0;                   // target parallelism
  double backlog = 0.0;         // smoothed signal that triggered it
};

class ScalingController {
 public:
  // max_parallelism == 0 puts the ceiling one step above the build-time
  // parallelism, not above the live one, so repeated grows stop there.
  ScalingController(ElasticConfig cfg, int op, int initial_parallelism)
      : cfg_(cfg),
        op_(op),
        parallelism_(initial_parallelism),
        ceiling_(cfg.max_parallelism > 0 ? cfg.max_parallelism
                                         : initial_parallelism + cfg.step) {}

  // One poll: feed the current mean queue-fill fraction of the operator's
  // instances. Returns a plan when the decision rule fires.
  std::optional<RescalePlan> on_sample(double backlog_frac, Time now) {
    ++polls_;
    ewma_ = seen_sample_
                ? cfg_.ewma_alpha * backlog_frac +
                      (1.0 - cfg_.ewma_alpha) * ewma_
                : backlog_frac;
    seen_sample_ = true;
    if (ewma_ >= cfg_.up_backlog) {
      ++above_;
      below_ = 0;
    } else if (ewma_ <= cfg_.down_backlog) {
      ++below_;
      above_ = 0;
    } else {
      above_ = below_ = 0;  // inside the hysteresis band: hold
    }
    if (pending_) return std::nullopt;
    if (has_rescaled_ && now - last_rescale_ < cfg_.cooldown) {
      return std::nullopt;
    }
    if (above_ >= cfg_.sustain_up) {
      const int target = std::min(parallelism_ + cfg_.step, ceiling_);
      if (target > parallelism_) return issue(target, now);
    }
    if (below_ >= cfg_.sustain_down) {
      const int target =
          std::max(parallelism_ - cfg_.step, cfg_.min_parallelism);
      if (target < parallelism_) return issue(target, now);
    }
    return std::nullopt;
  }

  // The migration machinery executed the pending plan.
  void confirm(int new_parallelism, Time now) {
    parallelism_ = new_parallelism;
    pending_ = false;
    last_rescale_ = now;
    has_rescaled_ = true;
    // A fresh shape invalidates the evidence gathered against the old one.
    above_ = below_ = 0;
  }

  // The pending plan was canceled (epoch aborted, crash mid-migration).
  // The cooldown still starts: immediately re-issuing into an unstable
  // cluster would just cancel again.
  void abort(Time now) {
    pending_ = false;
    last_rescale_ = now;
    has_rescaled_ = true;
    above_ = below_ = 0;
  }

  int op() const { return op_; }
  int parallelism() const { return parallelism_; }
  bool pending() const { return pending_; }
  double backlog_ewma() const { return ewma_; }
  uint64_t polls() const { return polls_; }

 private:
  RescalePlan issue(int target, Time now) {
    RescalePlan p;
    p.op = op_;
    p.from = parallelism_;
    p.to = target;
    p.delta = target - parallelism_;
    p.backlog = ewma_;
    pending_ = true;
    last_rescale_ = now;  // decision-to-decision cooldown
    has_rescaled_ = true;
    above_ = below_ = 0;
    return p;
  }

  ElasticConfig cfg_;
  int op_;
  int parallelism_;
  int ceiling_;
  double ewma_ = 0.0;
  bool seen_sample_ = false;
  int above_ = 0;
  int below_ = 0;
  bool pending_ = false;
  bool has_rescaled_ = false;
  Time last_rescale_ = 0;
  uint64_t polls_ = 0;
};

}  // namespace whale::elastic

#include "multicast/controller.h"

namespace whale::multicast {

int SelfAdjustingController::model_dstar(double lambda_tps,
                                         Duration te) const {
  if (lambda_tps <= 0.0 || te <= 0) return max_dstar_;
  const int d = MD1::max_out_degree(lambda_tps, te,
                                    static_cast<double>(capacity_));
  return std::clamp(d, kMinDstar, max_dstar_);
}

SelfAdjustingController::Decision SelfAdjustingController::on_sample(
    size_t queue_len, double lambda_tps, Duration te) {
  const double l = static_cast<double>(effective_queue_len(queue_len));
  Decision decision;
  if (switching_) return decision;  // a switch is already in flight
  if (!have_prev_) {
    have_prev_ = true;
    prev_len_ = l;
    return decision;
  }
  const double l_prev = prev_len_;
  prev_len_ = l;
  const double lw = waterline();

  if (l > l_prev) {
    // Rising waterline: negative scale-down when the rise is steep relative
    // to the head-room below l_w (or the waterline is already breached).
    const double delta = l - l_prev;
    const bool breached = l >= lw;
    const bool steep = !breached && delta / (lw - l) >= cfg_.t_down;
    if (breached || steep) {
      const int target = std::min(model_dstar(lambda_tps, te), dstar_ - 1);
      if (target >= kMinDstar && target < dstar_) {
        decision.action = Action::kScaleDown;
        decision.new_dstar = target;
        switching_ = true;
        ++scale_downs_;
      }
    }
  } else if (l < l_prev || (l == 0.0 && l_prev == 0.0)) {
    // Draining (or idle-empty) waterline: active scale-up when the drain is
    // fast relative to the previous level, or the queue is empty.
    const double delta = l_prev - l;
    const bool empty = (l == 0.0 && l_prev == 0.0);
    const bool fast = l_prev > 0.0 && delta / l_prev >= kTUp;
    if (empty || fast) {
      // Scale up only as far as the queue model says the current input rate
      // affords; a draining queue with a hot lambda estimate stays put.
      const int target = std::min(model_dstar(lambda_tps, te), max_dstar_);
      if (target > dstar_) {
        decision.action = Action::kScaleUp;
        decision.new_dstar = target;
        switching_ = true;
        ++scale_ups_;
      }
    }
  }
  return decision;
}

}  // namespace whale::multicast

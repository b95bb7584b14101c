// Self-adjusting controller and statistics-monitor tests (Secs. 3.3 / 4):
// the negative scale-down and active scale-up trigger rules, d* selection
// from the queue model, and the lambda / t_e estimators.
#include <gtest/gtest.h>

#include "multicast/controller.h"

namespace whale::multicast {
namespace {

using Action = SelfAdjustingController::Action;

ControllerConfig cfg(double t_down = 0.5, double lw_frac = 0.5) {
  ControllerConfig c;
  c.t_down = t_down;
  c.warning_waterline_frac = lw_frac;
  return c;
}

TEST(StreamMonitor, EwmaRateEstimation) {
  StreamMonitor m(ms(100), /*alpha=*/0.0);  // alpha 0: latest window only
  for (int i = 0; i < 50; ++i) m.record_arrival(ms(i));  // 50 in 100 ms
  // Rolling past the window folds the count in: 50 per 100ms = 500 tps.
  EXPECT_NEAR(m.rate_tps(ms(100)), 500.0, 1e-6);
}

TEST(StreamMonitor, AlphaSmoothsSteps) {
  StreamMonitor m(ms(100), /*alpha=*/0.8);
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 100; ++i) m.record_arrival(ms(w * 100 + i));
  }
  const double settled = m.rate_tps(ms(1000));
  EXPECT_NEAR(settled, 1000.0, 120.0);
  // A sudden quiet period decays gradually, not instantly.
  const double after_gap = m.rate_tps(ms(1100));
  EXPECT_GT(after_gap, 500.0);
  EXPECT_LT(after_gap, settled);
}

TEST(ServiceTimeMonitor, AveragesSamples) {
  ServiceTimeMonitor m(0.5);
  EXPECT_FALSE(m.has_estimate());
  m.record(us(10));
  m.record(us(20));
  EXPECT_TRUE(m.has_estimate());
  // 0.5*10 + 0.5*20 = 15us.
  EXPECT_NEAR(static_cast<double>(m.estimate()),
              static_cast<double>(us(15)), 100.0);
}

TEST(Controller, NoActionOnFirstSample) {
  SelfAdjustingController c(cfg(), 1000, 29, 3);
  const auto d = c.on_sample(100, 10000.0, us(3));
  EXPECT_EQ(d.action, Action::kNone);
}

TEST(Controller, SteadyQueueNoAction) {
  SelfAdjustingController c(cfg(), 1000, 29, 3);
  c.on_sample(100, 10000.0, us(3));
  const auto d = c.on_sample(100, 10000.0, us(3));
  EXPECT_EQ(d.action, Action::kNone);
  EXPECT_EQ(c.dstar(), 3);
}

TEST(Controller, NegativeScaleDownOnSteepRise) {
  // l_w = 500. Rise 100 -> 400: delta = 300, headroom = 100,
  // ratio 3 >= T_down -> scale down.
  SelfAdjustingController c(cfg(), 1000, 29, 4);
  c.on_sample(100, 60000.0, us(3));
  const auto d = c.on_sample(400, 60000.0, us(3));
  EXPECT_EQ(d.action, Action::kScaleDown);
  EXPECT_LT(d.new_dstar, 4);
  EXPECT_GE(d.new_dstar, 1);
  EXPECT_TRUE(c.switching());
  EXPECT_EQ(c.scale_downs(), 1u);
}

TEST(Controller, GentleRiseBelowThresholdNoAction) {
  // Rise 100 -> 120: delta 20, headroom 380, ratio 0.05 < 0.5.
  SelfAdjustingController c(cfg(), 1000, 29, 4);
  c.on_sample(100, 10000.0, us(3));
  const auto d = c.on_sample(120, 10000.0, us(3));
  EXPECT_EQ(d.action, Action::kNone);
}

TEST(Controller, BreachedWaterlineAlwaysScalesDown) {
  SelfAdjustingController c(cfg(), 1000, 29, 4);
  c.on_sample(500, 60000.0, us(3));
  const auto d = c.on_sample(700, 60000.0, us(3));  // past l_w = 500
  EXPECT_EQ(d.action, Action::kScaleDown);
}

TEST(Controller, ActiveScaleUpOnFastDrain) {
  // Drop 400 -> 100: delta/l' = 0.75 >= T_up, and the model affords more.
  SelfAdjustingController c(cfg(), 1000, 29, 2);
  c.on_sample(400, 2000.0, us(3));
  const auto d = c.on_sample(100, 2000.0, us(3));
  EXPECT_EQ(d.action, Action::kScaleUp);
  EXPECT_GT(d.new_dstar, 2);
  EXPECT_EQ(c.scale_ups(), 1u);
}

TEST(Controller, EmptyQueueScalesUp) {
  SelfAdjustingController c(cfg(), 1000, 29, 2);
  c.on_sample(0, 1000.0, us(3));
  const auto d = c.on_sample(0, 1000.0, us(3));
  EXPECT_EQ(d.action, Action::kScaleUp);
}

TEST(Controller, NoScaleUpWhenModelForbids) {
  // Queue drains but lambda is too hot for a larger out-degree.
  SelfAdjustingController c(cfg(), 64, 29, 3);
  const double lambda = 80000.0;  // model d* ~= 1/(lambda*te) small
  c.on_sample(400, lambda, us(4));
  const auto d = c.on_sample(50, lambda, us(4));
  EXPECT_EQ(d.action, Action::kNone);
  EXPECT_EQ(c.dstar(), 3);
}

TEST(Controller, DstarCappedByBinomialDegree) {
  // 29 endpoints -> binomial degree 5; idle stream affords huge d* but the
  // cap binds (a larger out-degree cannot improve coverage, Thm. 2).
  SelfAdjustingController c(cfg(), 1000, 29, 2);
  c.on_sample(0, 10.0, us(3));
  const auto d = c.on_sample(0, 10.0, us(3));
  EXPECT_EQ(d.action, Action::kScaleUp);
  EXPECT_EQ(d.new_dstar, 5);
  EXPECT_EQ(c.max_dstar(), 5);
}

TEST(Controller, NoDecisionWhileSwitchInFlight) {
  SelfAdjustingController c(cfg(), 1000, 29, 4);
  c.on_sample(100, 60000.0, us(3));
  auto d = c.on_sample(450, 60000.0, us(3));
  ASSERT_EQ(d.action, Action::kScaleDown);
  // Another alarming sample during the switch: ignored.
  d = c.on_sample(480, 60000.0, us(3));
  EXPECT_EQ(d.action, Action::kNone);
  c.confirm(2);
  EXPECT_EQ(c.dstar(), 2);
  EXPECT_FALSE(c.switching());
}

TEST(Controller, AbortSwitchReenablesDecisions) {
  SelfAdjustingController c(cfg(), 1000, 29, 4);
  c.on_sample(100, 60000.0, us(3));
  ASSERT_EQ(c.on_sample(450, 60000.0, us(3)).action, Action::kScaleDown);
  c.abort_switch();
  EXPECT_FALSE(c.switching());
  EXPECT_EQ(c.dstar(), 4);  // unchanged
}

TEST(Controller, MinOutDegreeRespected) {
  SelfAdjustingController c(cfg(), 8, 29, 1);
  c.on_sample(2, 1e9, us(50));
  const auto d = c.on_sample(7, 1e9, us(50));
  // Already at the minimum: cannot scale below 1.
  EXPECT_EQ(d.action, Action::kNone);
  EXPECT_EQ(c.dstar(), 1);
}

}  // namespace
}  // namespace whale::multicast

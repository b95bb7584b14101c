// Elastic runtime rescaling configuration (DESIGN.md §14).
//
// Mirrors the state layer's zero-overhead contract: the subsystem is disabled
// by default, and with elasticity off the engine constructs no scaling
// controllers, schedules zero poll events and installs no probes, so the
// behavioural fingerprints stay bit-identical to the committed baseline.
#pragma once

#include "common/time.h"

namespace whale::elastic {

// Knobs for the gauge-driven scaling controller and the live-migration
// protocol. Lives here (header-only) so core/config.h can embed it
// without a link dependency.
struct ElasticConfig {
  // Master switch. Off = no controllers, no polls, no migration machinery.
  // Requires cfg.state.enabled with aligned barriers when on: the rescale
  // protocol quiesces operators at epoch-barrier alignment and migrates
  // state through the checkpoint store's committed images.
  bool enabled = false;

  // Simulated-time cadence at which the controller samples the executor
  // in-queue backlog gauges of every rescalable operator.
  Duration poll_interval = ms(20);

  // Decision rule (per operator, on the EWMA-smoothed mean queue-fill
  // fraction of its instances): grow when the backlog has sat at or above
  // `up_backlog` for `sustain_up` consecutive polls; shrink when it has
  // sat at or below `down_backlog` for `sustain_down` polls. The gap
  // between the two thresholds is the hysteresis band — inside it the
  // controller holds.
  double up_backlog = 0.25;
  double down_backlog = 0.02;
  int sustain_up = 2;
  int sustain_down = 5;

  // Minimum simulated time between two rescales of the same operator
  // (measured decision-to-decision), so one burst cannot thrash the
  // topology through the whole parallelism range in a single interval.
  Duration cooldown = ms(150);

  // EWMA smoothing factor for the backlog signal (1.0 = raw samples).
  double ewma_alpha = 0.5;

  // Instances added/removed per rescale plan, and the parallelism bounds
  // the controller may move an operator between. max_parallelism == 0
  // means one `step` of headroom above the build-time parallelism.
  int step = 1;
  int min_parallelism = 1;
  int max_parallelism = 0;
};

}  // namespace whale::elastic

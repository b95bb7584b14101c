#include "faults/injector.h"

#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace whale::faults {

FaultInjector::FaultInjector(sim::Simulation& sim, FaultPlan plan,
                             FaultHooks hooks)
    : sim_(sim), plan_(std::move(plan)), hooks_(std::move(hooks)) {}

void FaultInjector::trace_instant(const char* name, int node) {
  if (tracer_ && tracer_->enabled()) {
    tracer_->instant(name, "fault", node, obs::kLaneControl, sim_.now());
  }
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("FaultInjector::arm called twice");
  armed_ = true;

  for (const NodeCrash& c : plan_.crashes) {
    sim_.schedule_at(c.at, [this, c] {
      ++crashes_fired_;
      trace_instant("fault.crash", c.node);
      if (hooks_.crash_node) hooks_.crash_node(c.node);
      if (c.restart_after > 0) {
        sim_.schedule_after(c.restart_after, [this, c] {
          ++restarts_fired_;
          trace_instant("fault.restart", c.node);
          if (hooks_.restart_node) hooks_.restart_node(c.node);
        });
      }
    });
  }

  for (const LinkFault& l : plan_.links) {
    sim_.schedule_at(l.at, [this, l] {
      ++link_faults_fired_;
      trace_instant("fault.link_degrade", l.src);
      if (hooks_.degrade_link) hooks_.degrade_link(l);
      if (l.duration > 0) {
        sim_.schedule_after(l.duration, [this, l] {
          trace_instant("fault.link_restore", l.src);
          if (hooks_.restore_link) hooks_.restore_link(l);
        });
      }
    });
  }

  for (const RelayStall& s : plan_.stalls) {
    sim_.schedule_at(s.at, [this, s] {
      ++stalls_fired_;
      trace_instant("fault.relay_stall", s.node);
      if (hooks_.stall_relay) hooks_.stall_relay(s.node);
      if (s.duration > 0) {
        sim_.schedule_after(s.duration, [this, s] {
          trace_instant("fault.relay_unstall", s.node);
          if (hooks_.unstall_relay) hooks_.unstall_relay(s.node);
        });
      }
    });
  }
}

}  // namespace whale::faults

// Event clock: maps event time (scenario seconds) onto wall time at a
// configurable acceleration, so a recorded trace replays in real time
// (acceleration = 1), at 10000× wall speed, or as fast as the CPU
// allows (acceleration = 0, "free run" — every wait returns
// immediately).
//
// The clock only *paces*; it never decides. Control outcomes depend on
// event-time ordering alone, which is deterministic, so two runs at
// different accelerations produce identical results — only their wall
// clocks differ. Lag (how far behind the pacing schedule a consumer is)
// is the runtime's deadline signal.
//
// lint: nondet-ok-file — this file IS the wall-clock boundary; every
// steady_clock read in the runtime funnels through it.
#pragma once

#include <chrono>

namespace gridctl::runtime {

class EventClock {
 public:
  // `acceleration` event-seconds pass per wall second; 0 = free run.
  explicit EventClock(double acceleration);

  double acceleration() const { return acceleration_; }
  bool paced() const { return acceleration_ > 0.0; }

  // Anchor `event_time_s` to the current wall instant.
  void start(double event_time_s);

  // Block until the wall instant corresponding to `event_time_s`
  // (no-op when free-running or already past it).
  void wait_until(double event_time_s) const;

  // Wall seconds by which the caller trails `event_time_s`'s scheduled
  // instant (negative = early, 0 when free-running).
  double lag_s(double event_time_s) const;

  // Wall-clock budget for one event-time period at this acceleration
  // (infinity when free-running: an unpaced run has no deadline).
  double wall_budget_s(double period_event_s) const;

 private:
  // Wall seconds from the anchor to `event_time_s`'s scheduled instant.
  double wall_offset_s(double event_time_s) const {
    return (event_time_s - origin_event_s_) / acceleration_;
  }
  // That instant, saturated to a range steady_clock represents: at a
  // tiny acceleration one period is ~1e22 ns, past int64 nanoseconds.
  std::chrono::steady_clock::time_point wall_for(double event_time_s) const;

  double acceleration_;
  double origin_event_s_ = 0.0;
  std::chrono::steady_clock::time_point origin_wall_{};
};

}  // namespace gridctl::runtime

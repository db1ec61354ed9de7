// lint: nondet-ok-file — the wall-clock boundary (see event_clock.hpp).
#include "runtime/event_clock.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "util/error.hpp"

namespace gridctl::runtime {

EventClock::EventClock(double acceleration) : acceleration_(acceleration) {
  require(acceleration >= 0.0,
          "EventClock: acceleration must be >= 0 (0 = free run)");
}

void EventClock::start(double event_time_s) {
  origin_event_s_ = event_time_s;
  origin_wall_ = std::chrono::steady_clock::now();
}

std::chrono::steady_clock::time_point EventClock::wall_for(
    double event_time_s) const {
  // ±100 years: beyond any replay, well inside steady_clock's ±292.
  constexpr double kMaxOffsetS = 100.0 * 365.25 * 86400.0;
  const double wall_offset = std::clamp(wall_offset_s(event_time_s),
                                        -kMaxOffsetS, kMaxOffsetS);
  return origin_wall_ + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(wall_offset));
}

void EventClock::wait_until(double event_time_s) const {
  if (!paced()) return;
  std::this_thread::sleep_until(wall_for(event_time_s));
}

double EventClock::lag_s(double event_time_s) const {
  if (!paced()) return 0.0;
  // In double throughout: the scheduled instant may lie past the range
  // of a steady_clock subtraction.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_wall_)
             .count() -
         wall_offset_s(event_time_s);
}

double EventClock::wall_budget_s(double period_event_s) const {
  if (!paced()) return std::numeric_limits<double>::infinity();
  return period_event_s / acceleration_;
}

}  // namespace gridctl::runtime

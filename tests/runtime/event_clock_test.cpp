#include "runtime/event_clock.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace gridctl::runtime {
namespace {

TEST(EventClock, FreeRunHasNoLagAndNoBudget) {
  EventClock clock(0.0);
  clock.start(100.0);
  EXPECT_FALSE(clock.paced());
  EXPECT_EQ(clock.lag_s(1e9), 0.0);
  EXPECT_EQ(clock.wall_budget_s(60.0),
            std::numeric_limits<double>::infinity());
}

TEST(EventClock, LagSignFollowsTheSchedule) {
  EventClock clock(1000.0);
  clock.start(0.0);
  // An hour of event time ahead is 3.6 s of wall time ahead: early.
  EXPECT_LT(clock.lag_s(3600.0), 0.0);
  // An event already behind the anchor is late.
  EXPECT_GT(clock.lag_s(-3600.0), 0.0);
  EXPECT_DOUBLE_EQ(clock.wall_budget_s(60.0), 0.06);
}

// At 1e-12 one 60 s period is 6e13 wall seconds (6e22 ns), beyond the
// range of steady_clock's int64 nanoseconds: the lag must be the
// exact "far early", not the difference of a wrapped time point.
TEST(EventClock, TinyAccelerationKeepsAFiniteNegativeLag) {
  EventClock clock(1e-12);
  clock.start(0.0);
  const double lag = clock.lag_s(60.0);
  EXPECT_TRUE(std::isfinite(lag));
  EXPECT_LT(lag, 0.0);
  EXPECT_NEAR(lag, -6e13, 1e3);
}

}  // namespace
}  // namespace gridctl::runtime

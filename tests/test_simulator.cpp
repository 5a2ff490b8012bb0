#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bansim::sim {
namespace {

using namespace bansim::sim::literals;

TEST(Simulator, ClockStartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), TimePoint::zero());
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Simulator, ExecutesAtScheduledTime) {
  Simulator s;
  TimePoint observed;
  s.schedule_in(5_ms, [&] { observed = s.now(); });
  s.run();
  EXPECT_EQ(observed, TimePoint::zero() + 5_ms);
  EXPECT_EQ(s.now(), TimePoint::zero() + 5_ms);
}

TEST(Simulator, RunUntilStopsClockAtHorizon) {
  Simulator s;
  bool late_ran = false;
  s.schedule_in(10_ms, [&] { late_ran = true; });
  s.run_until(TimePoint::zero() + 4_ms);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.now(), TimePoint::zero() + 4_ms);
  // The event is still pending and fires on the next run.
  s.run();
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, RunUntilIncludesBoundary) {
  Simulator s;
  bool ran = false;
  s.schedule_in(4_ms, [&] { ran = true; });
  s.run_until(TimePoint::zero() + 4_ms);
  EXPECT_TRUE(ran);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  std::vector<double> times;
  s.schedule_in(1_ms, [&] {
    times.push_back(s.now().to_milliseconds());
    s.schedule_in(2_ms, [&] { times.push_back(s.now().to_milliseconds()); });
  });
  s.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  s.schedule_in(5_ms, [&] {
    bool ran = false;
    s.schedule_in(-3 * 1_ms, [&] { ran = true; });
    // Runs later in the same instant, not in the past.
    EXPECT_FALSE(ran);
  });
  s.run();
  EXPECT_EQ(s.now(), TimePoint::zero() + 5_ms);
}

TEST(Simulator, ScheduleAtClampsToPast) {
  Simulator s;
  TimePoint fired;
  s.schedule_in(5_ms, [&] {
    s.schedule_at(TimePoint::zero() + 1_ms, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, TimePoint::zero() + 5_ms);
}

TEST(Simulator, StopEndsRunEarly) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_in(Duration::milliseconds(i), [&] {
      if (++count == 3) s.stop();
    });
  }
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.events_pending(), 7u);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator s;
  int count = 0;
  s.schedule_in(1_ms, [&] { ++count; });
  s.schedule_in(2_ms, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 25; ++i) s.schedule_in(Duration::microseconds(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 25u);
}

TEST(Simulator, RunUntilAdvancesIdleClock) {
  Simulator s;  // no events at all
  s.run_until(TimePoint::zero() + 1_s);
  EXPECT_EQ(s.now(), TimePoint::zero() + 1_s);
}

TEST(Simulator, HandleCancellationFromWithinEvent) {
  Simulator s;
  bool victim_ran = false;
  EventHandle victim = s.schedule_in(10_ms, [&] { victim_ran = true; });
  s.schedule_in(5_ms, [&] { victim.cancel(); });
  s.run();
  EXPECT_FALSE(victim_ran);
}

}  // namespace
}  // namespace bansim::sim

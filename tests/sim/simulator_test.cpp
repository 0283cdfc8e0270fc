#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/sim/sim_fixtures.h"

namespace bolot::sim {
namespace {

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.now(), Duration::zero());
}

TEST(SimulatorTest, RunUntilAdvancesClockToEnd) {
  Simulator simulator;
  simulator.run_until(Duration::seconds(3));
  EXPECT_EQ(simulator.now(), Duration::seconds(3));
}

TEST(SimulatorTest, CallbackSeesItsOwnFireTime) {
  Simulator simulator;
  Duration seen;
  simulator.schedule_in(Duration::millis(42), [&] { seen = simulator.now(); });
  simulator.run_until(Duration::seconds(1));
  EXPECT_EQ(seen, Duration::millis(42));
}

TEST(SimulatorTest, ZeroDelayFromCallbackRunsAtSameTime) {
  // Regression test: the clock must advance *before* an event runs, or a
  // zero-delay schedule from inside a callback lands "in the past".
  Simulator simulator;
  std::vector<Duration> times;
  simulator.schedule_in(Duration::millis(10), [&] {
    simulator.schedule_in(Duration::zero(),
                          [&] { times.push_back(simulator.now()); });
  });
  simulator.schedule_in(Duration::millis(5), [] {});
  simulator.run_until(Duration::seconds(1));
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], Duration::millis(10));
}

TEST(SimulatorTest, RunUntilStopsBeforeLaterEvents) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_in(Duration::millis(10), [&] { ++fired; });
  simulator.schedule_in(Duration::millis(20), [&] { ++fired; });
  simulator.run_until(Duration::millis(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.now(), Duration::millis(15));
  simulator.run_until(Duration::millis(25));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtExactEndRuns) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_in(Duration::millis(10), [&] { ++fired; });
  simulator.run_until(Duration::millis(10));
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, RunToCompletionDrainsEverything) {
  Simulator simulator;
  int fired = 0;
  // A chain of events, each scheduling the next.
  std::function<void()> chain = [&] {
    if (++fired < 100) simulator.schedule_in(Duration::millis(1), chain);
  };
  simulator.schedule_in(Duration::millis(1), chain);
  drain(simulator);
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(simulator.now(), Duration::millis(100));
  EXPECT_EQ(simulator.events_dispatched(), 100u);
}

TEST(SimulatorTest, RejectsNegativeDelayAndPastTime) {
  Simulator simulator;
  EXPECT_THROW(simulator.schedule_in(Duration::millis(-1), [] {}),
               std::invalid_argument);
  simulator.run_until(Duration::seconds(1));
  EXPECT_THROW(simulator.schedule_at(Duration::millis(500), [] {}),
               std::invalid_argument);
}

TEST(SimulatorTest, CancelledEventsAreNotDispatched) {
  Simulator simulator;
  int fired = 0;
  auto handle = simulator.schedule_in(Duration::millis(1), [&] { ++fired; });
  handle.cancel();
  simulator.run_until(Duration::seconds(1));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(simulator.events_dispatched(), 0u);
}

TEST(SimulatorTest, RunUntilWithOnlyCancelledEventsAdvancesClockToEnd) {
  // Eager cancellation empties the queue, but run_until's clock contract
  // is unchanged: the clock still lands on `end`, never on the cancelled
  // event's time.
  Simulator simulator;
  auto handle = simulator.schedule_in(Duration::millis(10), [] {});
  handle.cancel();
  simulator.run_until(Duration::millis(25));
  EXPECT_EQ(simulator.now(), Duration::millis(25));
  EXPECT_EQ(simulator.events_dispatched(), 0u);
}

TEST(SimulatorTest, RunUntilLeavesClockAtEndWhenLastEventIsEarlier) {
  Simulator simulator;
  simulator.schedule_in(Duration::millis(10), [] {});
  simulator.run_until(Duration::seconds(2));
  EXPECT_EQ(simulator.now(), Duration::seconds(2));
}

TEST(SimulatorTest, PendingEventsCountsLiveEventsOnly) {
  Simulator simulator;
  auto a = simulator.schedule_in(Duration::millis(1), [] {});
  simulator.schedule_in(Duration::millis(2), [] {});
  simulator.schedule_in(Duration::millis(3), [] {});
  EXPECT_EQ(simulator.pending_events(), 3u);
  a.cancel();
  EXPECT_EQ(simulator.pending_events(), 2u);  // eager: gone immediately
  simulator.run_until(Duration::millis(2));
  EXPECT_EQ(simulator.pending_events(), 1u);
  drain(simulator);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, RetransmitTimerChurnKeepsQueueSmall) {
  // End-to-end guard for the unbounded-growth regression: a source that
  // rearms its RTO on every ack must leave at most one live timer.
  Simulator simulator;
  EventHandle rto;
  for (int i = 0; i < 50000; ++i) {
    rto.cancel();
    rto = simulator.schedule_in(Duration::seconds(30), [] {});
  }
  EXPECT_EQ(simulator.pending_events(), 1u);
}

}  // namespace
}  // namespace bolot::sim

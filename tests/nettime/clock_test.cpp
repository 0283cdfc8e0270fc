#include "nettime/clock.h"

#include <gtest/gtest.h>

namespace bolot {
namespace {

/// A clock that moves only when the test moves it.
class ManualClock final : public Clock {
 public:
  Duration now() const override { return current_; }
  void advance(Duration delta) { current_ += delta; }
  void set(Duration t) { current_ = t; }

 private:
  Duration current_;
};

TEST(SystemClockTest, IsMonotonic) {
  SystemClock clock;
  Duration last = clock.now();
  for (int i = 0; i < 1000; ++i) {
    const Duration now = clock.now();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(SystemClockTest, AdvancesInRealTime) {
  SystemClock clock;
  const Duration start = clock.now();
  // Busy-wait until the clock moves; a dead clock would hang, so bound
  // the loop.
  Duration now = start;
  for (int i = 0; i < 100000000 && now == start; ++i) now = clock.now();
  EXPECT_GT(now, start);
}

TEST(ManualClockTest, AdvanceAndSet) {
  // Readings go through the Clock interface, as the prober's do, and a
  // coarse host clock floors them.
  ManualClock manual;
  const Clock& clock = manual;
  EXPECT_EQ(clock.now(), Duration::zero());
  manual.advance(Duration::millis(5));
  EXPECT_EQ(clock.now(), Duration::millis(5));
  EXPECT_EQ(quantize(clock.now(), kDecstationTick), kDecstationTick);
  manual.set(Duration::seconds(1));
  EXPECT_EQ(clock.now(), Duration::seconds(1));
}

TEST(QuantizedClockTest, FloorsToTick) {
  const Duration tick = Duration::millis(4);
  EXPECT_EQ(quantize(Duration::millis(7), tick), Duration::millis(4));
  EXPECT_EQ(quantize(Duration::millis(8), tick), Duration::millis(8));
  EXPECT_EQ(quantize(Duration::micros(11999), tick), Duration::millis(8));
}

TEST(QuantizedClockTest, DecstationTickMatchesPaper) {
  // The paper's DECstation 5000 resolution: 3.906 ms.
  EXPECT_EQ(kDecstationTick, Duration::micros(3906));
  // 140 / 3.906 = 35.84..., so the reading floors to 35 ticks.
  EXPECT_EQ(quantize(Duration::millis(140.0), kDecstationTick),
            Duration::micros(3906) * 35);
}

TEST(QuantizedClockTest, QuantizeIsIdempotent) {
  const Duration tick = Duration::micros(3906);
  const Duration t = Duration::millis(123.456);
  const Duration once = quantize(t, tick);
  EXPECT_EQ(quantize(once, tick), once);
  EXPECT_LE(once, t);
  EXPECT_GT(once + tick, t);
}

}  // namespace
}  // namespace bolot

#include "util/time.h"

#include <gtest/gtest.h>

namespace bolot {
namespace {

TEST(DurationTest, DefaultIsZero) {
  Duration d;
  EXPECT_TRUE(d.is_zero());
  EXPECT_EQ(d.count_nanos(), 0);
}

TEST(DurationTest, NamedConstructorsRoundTrip) {
  EXPECT_EQ(Duration::millis(50).count_nanos(), 50'000'000);
  EXPECT_EQ(Duration::micros(3906).count_nanos(), 3'906'000);
  EXPECT_EQ(Duration::seconds(1).count_nanos(), 1'000'000'000);
  EXPECT_EQ(Duration::minutes(10).count_nanos(), 600'000'000'000LL);
  EXPECT_DOUBLE_EQ(Duration::millis(50).millis(), 50.0);
  EXPECT_DOUBLE_EQ(Duration::seconds(0.5).seconds(), 0.5);
}

TEST(DurationTest, RoundsToNearestNanosecond) {
  // 0.1 ns rounds down, 0.6 ns rounds up.
  EXPECT_EQ(Duration::seconds(0.1e-9).count_nanos(), 0);
  EXPECT_EQ(Duration::seconds(0.6e-9).count_nanos(), 1);
  EXPECT_EQ(Duration::seconds(-0.6e-9).count_nanos(), -1);
}

TEST(DurationTest, Arithmetic) {
  const Duration a = Duration::millis(10);
  const Duration b = Duration::millis(4);
  EXPECT_EQ((a + b).millis(), 14.0);
  EXPECT_EQ((a - b).millis(), 6.0);
  EXPECT_EQ((a * 3).millis(), 30.0);
  EXPECT_EQ((3 * a).millis(), 30.0);
  EXPECT_EQ((a * 0.5).millis(), 5.0);
  EXPECT_EQ((a / 2).millis(), 5.0);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
}

TEST(DurationTest, CompoundAssignment) {
  Duration d = Duration::millis(1);
  d += Duration::millis(2);
  EXPECT_EQ(d.millis(), 3.0);
  d += Duration::millis(-5);
  EXPECT_EQ(d.millis(), -2.0);
  EXPECT_TRUE(d.is_negative());
}

TEST(DurationTest, Ordering) {
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
  EXPECT_GT(Duration::seconds(1), Duration::millis(999));
  EXPECT_EQ(Duration::millis(1000), Duration::seconds(1));
  EXPECT_LE(Duration::zero(), Duration::zero());
}

TEST(DurationTest, ToStringPicksUnit) {
  EXPECT_EQ(Duration::nanos(12).to_string(), "12ns");
  EXPECT_EQ(Duration::micros(1.5).to_string(), "1.500us");
  EXPECT_EQ(Duration::millis(50).to_string(), "50.000ms");
  EXPECT_EQ(Duration::seconds(2).to_string(), "2.000s");
}

TEST(TransmissionTimeTest, MatchesPaperNumbers) {
  // A 72-byte probe on the 128 kb/s transatlantic link: 4.5 ms.
  EXPECT_DOUBLE_EQ(transmission_time(72 * 8, 128e3).millis(), 4.5);
  // One 512-byte FTP packet: 32 ms of service at the bottleneck.
  EXPECT_DOUBLE_EQ(transmission_time(512 * 8, 128e3).millis(), 32.0);
}

TEST(TransmissionTimeTest, RejectsBadArguments) {
  EXPECT_THROW(transmission_time(-1, 128e3), std::invalid_argument);
  EXPECT_THROW(transmission_time(100, 0.0), std::invalid_argument);
  EXPECT_THROW(transmission_time(100, -5.0), std::invalid_argument);
}

}  // namespace
}  // namespace bolot

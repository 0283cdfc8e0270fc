#include "nettime/wire_timestamp.h"

#include <gtest/gtest.h>

#include <array>

namespace bolot {
namespace {

TEST(WireTimestampTest, RoundTripsMicrosecondValues) {
  for (const double ms : {0.0, 1.0, 3.906, 140.0, 5000.0, 1e7}) {
    const Duration t = Duration::millis(ms);
    std::array<std::byte, kWireTimestampSize> wire{};
    encode_wire_timestamp(t, wire);
    EXPECT_EQ(decode_wire_timestamp(wire), t) << ms;
  }
}

TEST(WireTimestampTest, TruncatesSubMicrosecond) {
  std::array<std::byte, kWireTimestampSize> wire{};
  encode_wire_timestamp(Duration::nanos(1500), wire);  // 1.5 us
  EXPECT_EQ(decode_wire_timestamp(wire), Duration::micros(1));
}

TEST(WireTimestampTest, EncodesBigEndian) {
  std::array<std::byte, kWireTimestampSize> wire{};
  encode_wire_timestamp(Duration::micros(0x0102030405), wire);
  EXPECT_EQ(wire[0], std::byte{0x00});
  EXPECT_EQ(wire[1], std::byte{0x01});
  EXPECT_EQ(wire[2], std::byte{0x02});
  EXPECT_EQ(wire[3], std::byte{0x03});
  EXPECT_EQ(wire[4], std::byte{0x04});
  EXPECT_EQ(wire[5], std::byte{0x05});
}

TEST(WireTimestampTest, MaxRepresentableValue) {
  const std::int64_t max_us = (std::int64_t{1} << 48) - 1;
  std::array<std::byte, kWireTimestampSize> wire{};
  encode_wire_timestamp(Duration::nanos(max_us * 1000), wire);  // exact
  EXPECT_EQ(decode_wire_timestamp(wire).count_nanos(), max_us * 1000);
}

TEST(WireTimestampTest, RejectsOutOfRange) {
  std::array<std::byte, kWireTimestampSize> wire{};
  EXPECT_THROW(encode_wire_timestamp(Duration::micros(-1.0), wire),
               std::out_of_range);
  const double too_big_us = static_cast<double>(std::int64_t{1} << 48);
  EXPECT_THROW(encode_wire_timestamp(Duration::micros(too_big_us), wire),
               std::out_of_range);
}

TEST(WireTimestampTest, SixBytesCoverYearsOfUptime) {
  // 2^48 us ~ 8.9 years: the paper's 6-byte field never wraps within an
  // experiment.
  const double years =
      static_cast<double>(std::int64_t{1} << 48) / 1e6 / 86400.0 / 365.0;
  EXPECT_GT(years, 8.0);
}

}  // namespace
}  // namespace bolot

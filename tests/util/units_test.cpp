#include "util/units.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "util/rng.h"
#include "util/time.h"

namespace bolot {
namespace {

// ---------------------------------------------------------------------------
// Factory round-trips: every factory must store exactly the scalar its
// name and argument spell.
// ---------------------------------------------------------------------------

TEST(UnitsTest, ByteAndBitLiteralsRoundTrip) {
  EXPECT_EQ(ByteSize::bytes(1500).count(), 1500);
  EXPECT_EQ(BitSize::bits(96).count(), 96);
  EXPECT_EQ(ByteSize::bytes(1500).bit_count(), 12000);
  EXPECT_EQ(BitSize::of(ByteSize::bytes(576)).count(), 4608);
}

TEST(UnitsTest, BandwidthLiteralsRoundTrip) {
  EXPECT_DOUBLE_EQ(Bandwidth::bps(9600).bps(), 9600.0);
  EXPECT_DOUBLE_EQ(Bandwidth::kbps(128).bps(), 128e3);
  EXPECT_DOUBLE_EQ(Bandwidth::mbps(1.544).bps(), 1.544e6);
  EXPECT_DOUBLE_EQ(Bandwidth::mbps(10).bps(), 10e6);
  // The factory chain must match writing the raw scalar directly: the
  // refactor's byte-identical guarantee rests on this.
  EXPECT_EQ(Bandwidth::mbps(1.544).bps(), 1.544 * 1e6);
}

// ---------------------------------------------------------------------------
// Byte -> bit conversion: exact, and only through the named factory.
// ---------------------------------------------------------------------------

TEST(UnitsTest, ByteBitConversionIsExactAndChecked) {
  const ByteSize frame = ByteSize::bytes(1500);
  const BitSize wire = BitSize::of(frame);
  EXPECT_EQ(wire.count(), 12000);
  EXPECT_EQ(wire.count(), frame.bit_count());
  EXPECT_EQ(wire, BitSize::bits(12000));
  // Neither size converts to the other, explicitly or implicitly: a bit
  // count that is not a whole number of bytes can never be truncated
  // into a ByteSize.
  static_assert(!std::is_constructible_v<ByteSize, BitSize>);
  static_assert(!std::is_constructible_v<BitSize, ByteSize>);
  static_assert(!std::is_convertible_v<BitSize, ByteSize>);
  static_assert(!std::is_convertible_v<ByteSize, BitSize>);
}

// ---------------------------------------------------------------------------
// Transmission-time exactness: Bandwidth::transmission_time must compute
// bit-for-bit the raw-double formula Duration::seconds(bits / bps) the
// code used before the unit types, at 1 ns granularity, across a large
// random sample.  This is the property the whole byte-identical refactor
// leans on.
// ---------------------------------------------------------------------------

TEST(UnitsTest, TransmissionTimeMatchesLegacyHelperOverRandomPairs) {
  Rng rng(0xB0107u);  // fixed seed: failures must reproduce
  constexpr int kTrials = 1'000'000;
  for (int i = 0; i < kTrials; ++i) {
    const auto bytes = static_cast<std::int64_t>(rng.uniform_int(65536));
    // Rates spanning SLIP (9.6 kb/s) through 10 Gb/s, log-ish spread.
    const double rate = 9.6e3 * std::pow(10.0, rng.uniform(0.0, 6.0));
    const Duration typed =
        Bandwidth::bps(rate).transmission_time(ByteSize::bytes(bytes));
    const Duration legacy =
        Duration::seconds(static_cast<double>(bytes * 8) / rate);
    ASSERT_EQ(typed.count_nanos(), legacy.count_nanos())
        << "bytes=" << bytes << " rate=" << rate;
  }
}

TEST(UnitsTest, TransmissionTimeBitOverloadMatchesLegacyHelper) {
  Rng rng(42);
  constexpr int kTrials = 1'000'000;
  for (int i = 0; i < kTrials; ++i) {
    const auto bits = static_cast<std::int64_t>(rng.uniform_int(1 << 20));
    const double rate = rng.uniform(1e3, 1e9);
    const Duration typed =
        Bandwidth::bps(rate).transmission_time(BitSize::bits(bits));
    const Duration legacy =
        Duration::seconds(static_cast<double>(bits) / rate);
    ASSERT_EQ(typed.count_nanos(), legacy.count_nanos())
        << "bits=" << bits << " rate=" << rate;
  }
}

TEST(UnitsTest, TransmissionTimeKeepsLegacyDomainChecks) {
  EXPECT_THROW(Bandwidth::zero().transmission_time(ByteSize::bytes(512)),
               std::invalid_argument);
  EXPECT_THROW(Bandwidth::bps(-1.0).transmission_time(ByteSize::bytes(512)),
               std::invalid_argument);
  EXPECT_THROW(Bandwidth::bps(1e6).transmission_time(BitSize::bits(-8)),
               std::invalid_argument);
  // Zero-size payload is valid and instantaneous, as it was before.
  EXPECT_EQ(Bandwidth::bps(1e6).transmission_time(ByteSize::zero()),
            Duration::zero());
}

// ---------------------------------------------------------------------------
// Arithmetic transparency: typed operators must be the raw-double
// operations on the stored scalar, nothing cleverer.
// ---------------------------------------------------------------------------

TEST(UnitsTest, BandwidthArithmeticMatchesRawDoubles) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double a = rng.uniform(-1e9, 1e9);
    const double k = rng.uniform(-8.0, 8.0);
    EXPECT_EQ((Bandwidth::bps(a) * k).bps(), a * k);
  }
}

// ---------------------------------------------------------------------------
// Probability: the [0,1] boundary is inclusive, everything outside —
// including NaN and infinities — is rejected at construction, so an
// in-range value is an invariant of the type.
// ---------------------------------------------------------------------------

TEST(UnitsTest, ProbabilityAcceptsClosedUnitInterval) {
  EXPECT_DOUBLE_EQ(Probability::checked(0.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(Probability::checked(1.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(Probability::checked(0.011).value(), 0.011);
  // The exact boundary neighbours: the largest double below 1 and the
  // smallest above 0 are both fine.
  const double below_one = std::nextafter(1.0, 0.0);
  const double above_zero = std::nextafter(0.0, 1.0);
  EXPECT_DOUBLE_EQ(Probability::checked(below_one).value(), below_one);
  EXPECT_DOUBLE_EQ(Probability::checked(above_zero).value(), above_zero);
  EXPECT_TRUE(Probability::zero().is_zero());
  EXPECT_DOUBLE_EQ(Probability::one().value(), 1.0);
}

TEST(UnitsTest, ProbabilityRejectsOutOfRangeAndNonFinite) {
  EXPECT_THROW(Probability::checked(std::nextafter(1.0, 2.0)),
               std::invalid_argument);
  EXPECT_THROW(Probability::checked(-std::numeric_limits<double>::min()),
               std::invalid_argument);
  EXPECT_THROW(Probability::checked(1.5), std::invalid_argument);
  EXPECT_THROW(Probability::checked(-0.1), std::invalid_argument);
  EXPECT_THROW(Probability::checked(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(Probability::checked(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(Probability::checked(-std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(UnitsTest, ProbabilityComplementStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const Probability p = Probability::checked(rng.uniform());
    const Probability q = p.complement();
    EXPECT_DOUBLE_EQ(q.value(), 1.0 - p.value());
    // complement() returns a Probability, so this cannot throw; assert
    // the invariant anyway to pin the closed-form bound.
    EXPECT_GE(q.value(), 0.0);
    EXPECT_LE(q.value(), 1.0);
  }
}

}  // namespace
}  // namespace bolot

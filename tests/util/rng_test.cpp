#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tests/util/normal.h"

namespace bolot {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.split();
  // The child stream must not simply replay the parent stream.
  Rng parent_copy(7);
  parent_copy.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == parent_copy.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntInRangeAndRejectsZero) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_int(17), 17u);
  }
  EXPECT_THROW(rng.uniform_int(0), std::invalid_argument);
}

TEST(RngTest, ChanceEdgeCases) {
  Rng rng(17);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(1.5));
}

TEST(RngTest, ChanceFrequencyMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(42.0);
  EXPECT_NEAR(sum / n, 42.0, 0.5);
  // NaN fails `mean <= 0` too, and an infinite mean returned an infinite
  // draw that exponential_time's Duration cast cannot hold.
  for (const double bad : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    try {
      rng.exponential(bad);
      ADD_FAILURE() << "exponential(" << bad << ") was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "exponential: mean must be finite and > 0");
    }
  }
}

TEST(RngTest, ExponentialTimeMeanMatches) {
  Rng rng(29);
  Duration sum;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential_time(Duration::millis(20));
  EXPECT_NEAR((sum / n).millis(), 20.0, 0.5);
}

TEST(RngTest, GeometricMeanMatches) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.geometric(0.25));
  }
  EXPECT_NEAR(sum / n, 4.0, 0.1);
  EXPECT_EQ(rng.geometric(1.0), 1u);
  EXPECT_THROW(rng.geometric(0.0), std::invalid_argument);
  EXPECT_THROW(rng.geometric(1.5), std::invalid_argument);
  // NaN fails every comparison: unchecked, it cast log(u) / NaN to a
  // 9.2e18-packet burst.
  try {
    rng.geometric(std::nan(""));
    ADD_FAILURE() << "geometric(NaN) was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "geometric: p must be in (0, 1]");
  }
}

TEST(RngTest, GeometricIsAtLeastOne) {
  Rng rng(37);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.geometric(0.9), 1u);
  }
}

TEST(RngTest, ParetoBoundedBelowByScale) {
  Rng rng(41);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.pareto(1.5, 3.0), 3.0);
  }
  const double nan = std::nan("");
  const std::pair<double, double> bad[] = {
      {0.0, 1.0}, {1.0, 0.0}, {nan, 1.0}, {1.0, nan}, {HUGE_VAL, 1.0},
      {1.0, HUGE_VAL}};
  for (const auto& [alpha, xm] : bad) {
    try {
      rng.pareto(alpha, xm);
      ADD_FAILURE() << "pareto(" << alpha << ", " << xm << ") was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "pareto: parameters must be finite and > 0");
    }
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(43);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = normal(rng, 10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(DeriveStreamSeedTest, DeterministicAndIndexSensitive) {
  EXPECT_EQ(derive_stream_seed(1993, 0), derive_stream_seed(1993, 0));
  EXPECT_NE(derive_stream_seed(1993, 0), derive_stream_seed(1993, 1));
  EXPECT_NE(derive_stream_seed(1993, 0), derive_stream_seed(1994, 0));
  // Stream k of base b must not collide with stream b of base k (the
  // naive base+index mix would).
  EXPECT_NE(derive_stream_seed(5, 9), derive_stream_seed(9, 5));
}

TEST(DeriveStreamSeedTest, StreamsPairwiseDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {0ULL, 1993ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    for (std::uint64_t index = 0; index < 4096; ++index) {
      seeds.insert(derive_stream_seed(base, index));
    }
  }
  EXPECT_EQ(seeds.size(), 3u * 4096u);
}

TEST(DeriveStreamSeedTest, DerivedRngStreamsDiverge) {
  Rng a(derive_stream_seed(7, 0));
  Rng b(derive_stream_seed(7, 1));
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(SplitMix64Test, KnownFirstOutputs) {
  // Reference values for seed 0 from the SplitMix64 reference
  // implementation.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(sm.next(), 0x6E789E6AA1B965F4ULL);
}

}  // namespace
}  // namespace bolot

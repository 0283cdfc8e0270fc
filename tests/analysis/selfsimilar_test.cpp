#include "analysis/selfsimilar.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"
#include "tests/util/normal.h"

namespace bolot::analysis {
namespace {

std::vector<double> white_noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(normal(rng, 0.0, 1.0));
  return xs;
}

/// Long-range-dependent series via superposed heavy-tailed on/off sources
/// (the classic construction behind self-similar network traffic).
std::vector<double> lrd_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n, 0.0);
  for (int source = 0; source < 32; ++source) {
    std::size_t t = 0;
    bool on = rng.chance(0.5);
    while (t < n) {
      // Pareto(alpha = 1.4) period lengths: infinite variance.
      const auto period = static_cast<std::size_t>(rng.pareto(1.4, 4.0));
      const std::size_t end = std::min(n, t + period);
      if (on) {
        for (std::size_t i = t; i < end; ++i) xs[i] += 1.0;
      }
      t = end;
      on = !on;
    }
  }
  return xs;
}

TEST(VarianceTimeTest, WhiteNoiseHasHurstHalf) {
  const auto estimate = hurst_variance_time(white_noise(200000, 3));
  EXPECT_NEAR(estimate.hurst, 0.5, 0.06);
  EXPECT_GE(estimate.scales, 3u);
}

TEST(VarianceTimeTest, LrdSeriesHasHighHurst) {
  const auto estimate = hurst_variance_time(lrd_series(200000, 5));
  EXPECT_GT(estimate.hurst, 0.7);
}

TEST(RescaledRangeTest, WhiteNoiseNearHalf) {
  const auto estimate = hurst_rescaled_range(white_noise(200000, 7));
  // R/S has a known small-sample upward bias; accept a wide band around
  // 0.5 but demand clear separation from the LRD case below.
  EXPECT_GT(estimate.hurst, 0.4);
  EXPECT_LT(estimate.hurst, 0.68);
}

TEST(RescaledRangeTest, LrdSeriesHigherThanNoise) {
  const auto noise = hurst_rescaled_range(white_noise(100000, 9));
  const auto lrd = hurst_rescaled_range(lrd_series(100000, 11));
  EXPECT_GT(lrd.hurst, noise.hurst + 0.1);
}

TEST(HurstTest, EstimatorsAgreeOnDirection) {
  const auto vt = hurst_variance_time(lrd_series(100000, 13));
  const auto rs = hurst_rescaled_range(lrd_series(100000, 13));
  EXPECT_GT(vt.hurst, 0.65);
  EXPECT_GT(rs.hurst, 0.65);
}

TEST(HurstTest, Validation) {
  const std::vector<double> tiny(10, 1.0);
  EXPECT_THROW(hurst_variance_time(tiny), std::invalid_argument);
  EXPECT_THROW(hurst_rescaled_range(tiny), std::invalid_argument);
  const std::vector<double> constant(1000, 2.0);
  EXPECT_THROW(hurst_variance_time(constant), std::invalid_argument);
}

TEST(JitterTest, ConstantDelayIsZeroJitter) {
  const std::vector<double> rtts(100, 150.0);
  EXPECT_DOUBLE_EQ(interarrival_jitter_ms(rtts), 0.0);
}

TEST(JitterTest, ConvergesToExpectedValueForIidDelays) {
  // For iid U(0, 20) delays, E|d_i - d_{i-1}| = 20/3; the RFC filter
  // converges to that.
  Rng rng(17);
  std::vector<double> rtts;
  for (int i = 0; i < 100000; ++i) rtts.push_back(140.0 + rng.uniform(0.0, 20.0));
  EXPECT_NEAR(interarrival_jitter_ms(rtts), 20.0 / 3.0, 2.0);  // J has O(1) variance
}

TEST(JitterTest, Validation) {
  const std::vector<double> one = {5.0};
  EXPECT_THROW(interarrival_jitter_ms(one), std::invalid_argument);
}

}  // namespace
}  // namespace bolot::analysis

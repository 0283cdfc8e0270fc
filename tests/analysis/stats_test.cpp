#include "analysis/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "tests/analysis/trace_fixtures.h"
#include "util/rng.h"
#include "tests/util/normal.h"

namespace bolot::analysis {
namespace {

TEST(SummarizeTest, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(SummarizeTest, SingleValue) {
  const std::vector<double> xs = {42.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.mean, 42.0);
  EXPECT_EQ(s.variance, 0.0);
  EXPECT_EQ(s.min, 42.0);
  EXPECT_EQ(s.max, 42.0);
}

TEST(SummarizeTest, KnownMoments) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.variance, 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(SummarizeTest, NumericallyStableForLargeOffsets) {
  // Welford must not cancel catastrophically.
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(1e9 + (i % 2));
  const Summary s = summarize(xs);
  EXPECT_NEAR(s.variance, 0.2502, 0.001);
}

TEST(SummarizeTest, MillionSampleStreamIsPinned) {
  // A large offset: the Welford recurrence must not cancel.  Pinned bit
  // for bit (hex floats); StreamingSummary, the one recurrence summarize()
  // folds over, must reproduce it pushed one value at a time.
  Rng rng(29);
  std::vector<double> xs;
  StreamingSummary streaming;
  for (std::size_t i = 0; i < 1'000'000; ++i) {
    xs.push_back(1e6 + normal(rng, 0.0, 3.0));
    streaming.push(xs.back());
  }
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 1'000'000u);
  EXPECT_EQ(s.mean, 0x1.e848000a57f6cp+19);
  EXPECT_EQ(s.variance, 0x1.1f99c369cd46dp+3);
  EXPECT_EQ(s.stddev, 0x1.7fbbd18e4c931p+1);
  EXPECT_EQ(s.min, 0x1.e8462c5cd8316p+19);
  EXPECT_EQ(s.max, 0x1.e849b05975ad5p+19);
  const Summary online = streaming.summary();
  EXPECT_EQ(online.mean, s.mean);
  EXPECT_EQ(online.variance, s.variance);
  EXPECT_EQ(online.min, s.min);
  EXPECT_EQ(online.max, s.max);
}

TEST(QuantileTest, MedianAndExtremes) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(QuantileTest, LinearInterpolation) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 5.0);
}

TEST(QuantileTest, Validation) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile(xs, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(xs, 1.1), std::invalid_argument);
  // NaN passes q < 0 || q > 1; its index cast is undefined behaviour.
  EXPECT_THROW(quantile(xs, std::nan("")), std::invalid_argument);
}

TEST(AutocorrelationTest, Lag0IsOne) {
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.uniform());
  const auto acf = autocorrelation(xs, 5);
  ASSERT_EQ(acf.size(), 6u);
  EXPECT_NEAR(acf[0], 1.0, 1e-12);
}

TEST(AutocorrelationTest, WhiteNoiseDecorrelates) {
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(normal(rng, 0.0, 1.0));
  const auto acf = autocorrelation(xs, 3);
  for (std::size_t lag = 1; lag <= 3; ++lag) {
    EXPECT_NEAR(acf[lag], 0.0, 0.03) << lag;
  }
}

TEST(AutocorrelationTest, Ar1ProcessHasGeometricAcf) {
  // x_t = 0.8 x_{t-1} + e_t has acf(k) = 0.8^k.
  Rng rng(7);
  std::vector<double> xs = {0.0};
  for (int i = 1; i < 50000; ++i) {
    xs.push_back(0.8 * xs.back() + normal(rng, 0.0, 1.0));
  }
  const auto acf = autocorrelation(xs, 3);
  EXPECT_NEAR(acf[1], 0.8, 0.02);
  EXPECT_NEAR(acf[2], 0.64, 0.03);
  EXPECT_NEAR(acf[3], 0.512, 0.04);
}

TEST(AutocorrelationTest, MillionSampleArStreamIsPinned) {
  // AR(1) around an rtt-like offset: the long-horizon accumulation is
  // pinned bit for bit at lags across the whole decay.
  Rng rng(31);
  std::vector<double> xs;
  xs.reserve(testing::kMillionSamples);
  double x = 0.0;
  for (std::size_t i = 0; i < testing::kMillionSamples; ++i) {
    x = 0.8 * x + normal(rng, 0.0, 1.0);
    xs.push_back(120.0 + x);
  }
  const std::vector<double> acf = autocorrelation(xs, 64);
  ASSERT_EQ(acf.size(), 65u);
  EXPECT_EQ(acf[1], 0x1.99c3a478bd99cp-1);
  EXPECT_EQ(acf[2], 0x1.47cb27e5eb2d3p-1);
  EXPECT_EQ(acf[16], 0x1.a1a3a660f9e6p-6);
  EXPECT_EQ(acf[64], -0x1.def0c54ca5b1cp-10);
}

TEST(AutocorrelationTest, PeriodicSignalOscillates) {
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(std::sin(2.0 * std::numbers::pi * i / 10.0));
  }
  const auto acf = autocorrelation(xs, 10);
  EXPECT_NEAR(acf[5], -1.0, 0.05);  // half period: anti-correlated
  EXPECT_NEAR(acf[10], 1.0, 0.05);  // full period
}

TEST(AutocorrelationTest, Validation) {
  EXPECT_THROW(autocorrelation({}, 1), std::invalid_argument);
  const std::vector<double> constant(10, 3.0);
  EXPECT_THROW(autocorrelation(constant, 1), std::invalid_argument);
}

TEST(PearsonTest, PerfectCorrelation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg = ys;
  for (double& v : neg) v = -v;
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(PearsonTest, IndependentSamplesNearZero) {
  Rng rng(11);
  std::vector<double> xs, ys;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(normal(rng, 0, 1));
    ys.push_back(normal(rng, 0, 1));
  }
  EXPECT_NEAR(pearson(xs, ys), 0.0, 0.03);
}

TEST(PearsonTest, Validation) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0};
  EXPECT_THROW(pearson(a, b), std::invalid_argument);
  const std::vector<double> c = {3.0, 3.0};
  EXPECT_THROW(pearson(a, c), std::invalid_argument);
}

}  // namespace
}  // namespace bolot::analysis

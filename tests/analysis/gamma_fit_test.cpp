#include "analysis/gamma_fit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/stats.h"

#include "util/rng.h"

namespace bolot::analysis {
namespace {

// Gamma(k, theta) sampler via sum of exponentials for integer k.
double gamma_sample(Rng& rng, int k, double theta) {
  double sum = 0.0;
  for (int i = 0; i < k; ++i) sum += rng.exponential(theta);
  return sum;
}

TEST(RegularizedGammaPTest, KnownValues) {
  // P(1, x) = 1 - e^{-x}.
  for (const double x : {0.1, 1.0, 3.0}) {
    EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-10);
  }
  // P(k, 0) = 0; P(k, inf) -> 1.
  EXPECT_EQ(regularized_gamma_p(2.5, 0.0), 0.0);
  EXPECT_NEAR(regularized_gamma_p(2.5, 100.0), 1.0, 1e-10);
  // Median of Gamma(k=1): x = ln 2.
  EXPECT_NEAR(regularized_gamma_p(1.0, std::log(2.0)), 0.5, 1e-10);
}

TEST(RegularizedGammaPTest, MonotoneInX) {
  double last = 0.0;
  for (double x = 0.1; x < 20.0; x += 0.1) {
    const double value = regularized_gamma_p(3.0, x);
    EXPECT_GE(value, last);
    last = value;
  }
}

TEST(RegularizedGammaPTest, Validation) {
  EXPECT_THROW(regularized_gamma_p(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(regularized_gamma_p(-1.0, 1.0), std::invalid_argument);
}

TEST(ConstantPlusGammaTest, MomentsRoundTrip) {
  // The method-of-moments fit reproduces the sample's mean (constant +
  // k*theta) and variance (k*theta^2).
  const std::vector<double> xs = {140.0, 150.0, 160.0, 190.0};
  const Summary s = summarize(xs);
  const ConstantPlusGamma fit = fit_constant_plus_gamma(xs);
  EXPECT_EQ(fit.constant, 140.0);
  EXPECT_NEAR(fit.constant + fit.shape * fit.scale, s.mean, 1e-9);
  EXPECT_NEAR(fit.shape * fit.scale * fit.scale, s.variance, 1e-9);
  EXPECT_EQ(fit.cdf(139.0), 0.0);
  EXPECT_NEAR(fit.cdf(1e6), 1.0, 1e-9);
}

TEST(FitConstantPlusGammaTest, RecoversParameters) {
  Rng rng(3);
  std::vector<double> xs;
  const double constant = 140.0;
  const int shape = 3;
  const double scale = 8.0;
  for (int i = 0; i < 200000; ++i) {
    xs.push_back(constant + gamma_sample(rng, shape, scale));
  }
  const ConstantPlusGamma fit = fit_constant_plus_gamma(xs);
  // min(x) overestimates the true constant slightly (by ~the smallest
  // gamma draw), pulling the fitted shape up a bit; accept 10%.
  EXPECT_NEAR(fit.constant, constant, 1.0);
  EXPECT_NEAR(fit.shape, shape, 0.35);
  EXPECT_NEAR(fit.scale, scale, 1.0);
  EXPECT_NEAR(fit.constant + fit.shape * fit.scale, constant + shape * scale,
              0.5);
}

TEST(FitConstantPlusGammaTest, Validation) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW(fit_constant_plus_gamma(one), std::invalid_argument);
  const std::vector<double> constant(10, 5.0);
  EXPECT_THROW(fit_constant_plus_gamma(constant), std::invalid_argument);
}

TEST(KsStatisticTest, SmallForCorrectModel) {
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(140.0 + gamma_sample(rng, 2, 10.0));
  const ConstantPlusGamma fit = fit_constant_plus_gamma(xs);
  EXPECT_LT(ks_statistic(fit, xs), 0.03);
}

TEST(KsStatisticTest, LargeForWrongModel) {
  // Bimodal data is badly described by constant + gamma.
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) {
    xs.push_back(rng.chance(0.5) ? 140.0 + rng.uniform(0.0, 1.0)
                                 : 500.0 + rng.uniform(0.0, 1.0));
  }
  const ConstantPlusGamma fit = fit_constant_plus_gamma(xs);
  EXPECT_GT(ks_statistic(fit, xs), 0.2);
}

TEST(KsStatisticTest, Validation) {
  ConstantPlusGamma fit;
  fit.shape = 1.0;
  fit.scale = 1.0;
  EXPECT_THROW(ks_statistic(fit, {}), std::invalid_argument);
}

// Property sweep over shapes: the Mukherjee-style "constant plus gamma"
// delay model fits its own samples across parameterizations.
class GammaShapeSweep : public ::testing::TestWithParam<int> {};

TEST_P(GammaShapeSweep, SelfFitIsAdequate) {
  Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  std::vector<double> xs;
  for (int i = 0; i < 30000; ++i) {
    xs.push_back(50.0 + gamma_sample(rng, GetParam(), 5.0));
  }
  const ConstantPlusGamma fit = fit_constant_plus_gamma(xs);
  EXPECT_LT(ks_statistic(fit, xs), 0.05) << "shape " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Shapes, GammaShapeSweep, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace bolot::analysis

#include "analysis/arma_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/ar_model.h"
#include "analysis/stats.h"
#include "util/rng.h"
#include "tests/analysis/vector_oracles.h"
#include "tests/util/normal.h"

namespace bolot::analysis {
namespace {

/// Simulates ARMA(p, q) with given coefficients and unit-variance noise.
std::vector<double> arma_series(const std::vector<double>& ar,
                                const std::vector<double>& ma, std::size_t n,
                                std::uint64_t seed, double mean = 0.0) {
  Rng rng(seed);
  std::vector<double> xs;
  std::vector<double> e;
  xs.reserve(n);
  e.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    double value = mean;
    const double noise = normal(rng, 0.0, 1.0);
    for (std::size_t i = 0; i < ar.size() && i < t; ++i) {
      value += ar[i] * (xs[t - 1 - i] - mean);
    }
    for (std::size_t j = 0; j < ma.size() && j < t; ++j) {
      value += ma[j] * e[t - 1 - j];
    }
    value += noise;
    xs.push_back(value);
    e.push_back(noise);
  }
  return xs;
}

TEST(FitArmaTest, RecoversArma11) {
  const auto xs = arma_series({0.6}, {0.4}, 200000, 3);
  const ArmaModel model = fit_arma(xs, 1, 1);
  ASSERT_EQ(model.p(), 1u);
  ASSERT_EQ(model.q(), 1u);
  EXPECT_NEAR(model.ar[0], 0.6, 0.04);
  EXPECT_NEAR(model.ma[0], 0.4, 0.05);
  EXPECT_NEAR(model.noise_variance, 1.0, 0.05);
}

TEST(FitArmaTest, RecoversPureMa) {
  const auto xs = arma_series({}, {0.7}, 200000, 5);
  const ArmaModel model = fit_arma(xs, 0, 1);
  EXPECT_NEAR(model.ma[0], 0.7, 0.05);
}

TEST(FitArmaTest, RecoversArma21) {
  const auto xs = arma_series({0.5, 0.2}, {0.3}, 300000, 7);
  const ArmaModel model = fit_arma(xs, 2, 1);
  EXPECT_NEAR(model.ar[0], 0.5, 0.06);
  EXPECT_NEAR(model.ar[1], 0.2, 0.06);
  EXPECT_NEAR(model.ma[0], 0.3, 0.07);
}

TEST(FitArmaTest, NonZeroMean) {
  const auto xs = arma_series({0.5}, {0.3}, 100000, 9, 42.0);
  const ArmaModel model = fit_arma(xs, 1, 1);
  EXPECT_NEAR(model.mean, 42.0, 0.3);
  EXPECT_NEAR(model.ar[0], 0.5, 0.05);
}

TEST(FitArmaTest, Validation) {
  const auto xs = arma_series({0.5}, {}, 1000, 11);
  EXPECT_THROW(fit_arma(xs, 0, 0), std::invalid_argument);
  const std::vector<double> tiny(20, 1.0);
  EXPECT_THROW(fit_arma(tiny, 1, 1), std::invalid_argument);
}

TEST(ArmaResidualsTest, TrueModelLeavesWhiteResiduals) {
  const auto xs = arma_series({0.6}, {0.4}, 100000, 13);
  ArmaModel truth;
  truth.ar = {0.6};
  truth.ma = {0.4};
  truth.mean = 0.0;
  const auto residuals = oracle::arma_residuals(truth, xs);
  const Summary s = summarize(residuals);
  EXPECT_NEAR(s.variance, 1.0, 0.05);
  const auto acf = autocorrelation(residuals, 2);
  EXPECT_NEAR(acf[1], 0.0, 0.02);
  EXPECT_NEAR(acf[2], 0.0, 0.02);
  // arma_r_squared folds exactly these residuals.
  EXPECT_EQ(arma_r_squared(truth, xs), oracle::arma_r_squared(truth, xs));
}

TEST(ArmaRSquaredTest, RejectsShortOrConstantSeries) {
  ArmaModel model;
  model.ar = {0.5, 0.2};
  model.ma = {0.3};
  const std::vector<double> short_series = {1.0, 2.0};
  EXPECT_THROW(arma_r_squared(model, short_series), std::invalid_argument);
  const std::vector<double> flat(10, 3.0);
  EXPECT_THROW(arma_r_squared(model, flat), std::invalid_argument);
}

TEST(ArmaRSquaredTest, BeatsPureArOnMaProcess) {
  // For an MA(1) process an AR(1) model is misspecified; ARMA(0,1) should
  // explain at least as much variance.
  const auto xs = arma_series({}, {0.8}, 100000, 17);
  const ArmaModel arma = fit_arma(xs, 0, 1);
  const ArModel ar = fit_ar(xs, 1);
  const double arma_r2 = arma_r_squared(arma, xs);
  const double ar_r2 = ar_r_squared(ar, xs);
  EXPECT_GT(arma_r2, ar_r2 - 0.005);
  // Theoretical limit: R^2 = theta^2 / (1 + theta^2) = 0.39.
  EXPECT_NEAR(arma_r2, 0.39, 0.03);
}

TEST(ArmaRSquaredTest, QueueingDelayAdequacy) {
  // The section-3 question end to end: a Lindley waiting-time series is
  // well explained one-step-ahead by a low-order ARMA model.
  Rng rng(19);
  std::vector<double> waits = {0.0};
  for (int i = 0; i < 100000; ++i) {
    waits.push_back(std::max(0.0, waits.back() + rng.exponential(4.0) - 5.0));
  }
  const ArmaModel model = fit_arma(waits, 1, 1);
  EXPECT_GT(arma_r_squared(model, waits), 0.45);
}

}  // namespace
}  // namespace bolot::analysis

#include "analysis/ar_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/stats.h"
#include "util/rng.h"
#include "tests/analysis/vector_oracles.h"
#include "tests/util/normal.h"

namespace bolot::analysis {
namespace {

std::vector<double> ar1_series(double phi, double noise, std::size_t n,
                               std::uint64_t seed, double mean = 0.0) {
  Rng rng(seed);
  std::vector<double> xs = {mean};
  for (std::size_t i = 1; i < n; ++i) {
    xs.push_back(mean + phi * (xs.back() - mean) + normal(rng, 0.0, noise));
  }
  return xs;
}

TEST(FitArTest, RecoversAr1Coefficient) {
  const auto xs = ar1_series(0.7, 1.0, 100000, 3);
  const ArModel model = fit_ar(xs, 1);
  ASSERT_EQ(model.order(), 1u);
  EXPECT_NEAR(model.coefficients[0], 0.7, 0.02);
  EXPECT_NEAR(model.noise_variance, 1.0, 0.05);
}

TEST(FitArTest, RecoversAr2Coefficients) {
  // x_t = 0.5 x_{t-1} + 0.3 x_{t-2} + e_t.
  Rng rng(5);
  std::vector<double> xs = {0.0, 0.0};
  for (int i = 2; i < 200000; ++i) {
    const double x = 0.5 * xs[xs.size() - 1] + 0.3 * xs[xs.size() - 2] +
                     normal(rng, 0.0, 1.0);
    xs.push_back(x);
  }
  const ArModel model = fit_ar(xs, 2);
  EXPECT_NEAR(model.coefficients[0], 0.5, 0.02);
  EXPECT_NEAR(model.coefficients[1], 0.3, 0.02);
}

TEST(FitArTest, NonZeroMeanHandled) {
  const auto xs = ar1_series(0.6, 1.0, 100000, 7, 50.0);
  const ArModel model = fit_ar(xs, 1);
  EXPECT_NEAR(model.mean, 50.0, 0.3);
  EXPECT_NEAR(model.coefficients[0], 0.6, 0.02);
}

TEST(FitArTest, Validation) {
  const std::vector<double> xs = {1.0, 2.0, 1.5};
  EXPECT_THROW(fit_ar(xs, 0), std::invalid_argument);
  EXPECT_THROW(fit_ar(xs, 3), std::invalid_argument);
  const std::vector<double> constant(100, 2.0);
  EXPECT_THROW(fit_ar(constant, 1), std::invalid_argument);
}

TEST(PredictNextTest, UsesMostRecentValues) {
  ArModel model;
  model.coefficients = {0.5, 0.25};  // phi_1 (lag 1), phi_2 (lag 2)
  model.mean = 0.0;
  // recent = {x_{t-2}, x_{t-1}} = {4, 8}: forecast = 0.5*8 + 0.25*4 = 5.
  const std::vector<double> recent = {4.0, 8.0};
  EXPECT_DOUBLE_EQ(model.predict_next(recent), 5.0);
}

TEST(PredictNextTest, RequiresEnoughHistory) {
  ArModel model;
  model.coefficients = {0.5, 0.25};
  const std::vector<double> recent = {1.0};
  EXPECT_THROW(model.predict_next(recent), std::invalid_argument);
}

TEST(ArResidualsTest, WhiteNoiseResidualsForCorrectModel) {
  const auto xs = ar1_series(0.8, 1.0, 50000, 11);
  const ArModel model = fit_ar(xs, 1);
  const auto residuals = oracle::ar_residuals(model, xs);
  ASSERT_EQ(residuals.size(), xs.size() - 1);
  // Residuals of the true model are the innovations: variance ~ 1, acf ~ 0.
  const Summary s = summarize(residuals);
  EXPECT_NEAR(s.variance, 1.0, 0.05);
  const auto acf = autocorrelation(residuals, 1);
  EXPECT_NEAR(acf[1], 0.0, 0.02);
  // ar_r_squared folds exactly these residuals: mse ~ 1 against the
  // series variance 1 / (1 - phi^2).
  EXPECT_EQ(ar_r_squared(model, xs), oracle::ar_r_squared(model, xs));
  EXPECT_NEAR(ar_r_squared(model, xs), 0.64, 0.03);
}

TEST(ArRSquaredTest, RejectsShortOrConstantSeries) {
  ArModel model;
  model.coefficients = {0.5, 0.25};
  const std::vector<double> short_series = {1.0, 2.0};
  EXPECT_THROW(ar_r_squared(model, short_series), std::invalid_argument);
  const std::vector<double> flat(10, 3.0);
  EXPECT_THROW(ar_r_squared(model, flat), std::invalid_argument);
}

TEST(ArRSquaredTest, StrongAr1IsPredictable) {
  const auto xs = ar1_series(0.9, 1.0, 50000, 13);
  const ArModel model = fit_ar(xs, 1);
  // Theoretical R^2 for AR(1) = phi^2 = 0.81.
  EXPECT_NEAR(ar_r_squared(model, xs), 0.81, 0.03);
}

TEST(ArRSquaredTest, WhiteNoiseIsNotPredictable) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(normal(rng, 0, 1));
  const ArModel model = fit_ar(xs, 2);
  EXPECT_NEAR(ar_r_squared(model, xs), 0.0, 0.02);
}

TEST(SelectArOrderTest, PrefersTrueOrderForAr2) {
  Rng rng(23);
  std::vector<double> xs = {0.0, 0.0};
  for (int i = 2; i < 100000; ++i) {
    xs.push_back(0.5 * xs[xs.size() - 1] + 0.3 * xs[xs.size() - 2] +
                 normal(rng, 0.0, 1.0));
  }
  const ArOrderSelection selection = select_ar_order(xs, 6);
  EXPECT_EQ(selection.best_order, 2u);
  ASSERT_EQ(selection.aic_by_order.size(), 6u);
  // AIC at the chosen order is minimal.
  for (double aic : selection.aic_by_order) {
    EXPECT_GE(aic, selection.aic_by_order[selection.best_order - 1] - 1e-9);
  }
}

TEST(SelectArOrderTest, Ar1SeriesSelectsLowOrder) {
  const auto xs = ar1_series(0.8, 1.0, 100000, 29);
  const ArOrderSelection selection = select_ar_order(xs, 5);
  EXPECT_LE(selection.best_order, 2u);
}

TEST(SelectArOrderTest, Validation) {
  const auto xs = ar1_series(0.5, 1.0, 100, 31);
  EXPECT_THROW(select_ar_order(xs, 0), std::invalid_argument);
}

// The section-3 use case: is an AR model adequate for queueing delay?
// For a Lindley-type process the one-step predictability is high at
// heavy load (long busy periods) — the test checks the machinery end to
// end on a queueing-like series.
TEST(ArModelTest, QueueingDelaySeriesIsPredictable) {
  Rng rng(19);
  std::vector<double> waits = {0.0};
  for (int i = 0; i < 50000; ++i) {
    const double next =
        std::max(0.0, waits.back() + rng.exponential(4.5) - 5.0);
    waits.push_back(next);
  }
  const ArModel model = fit_ar(waits, 1);
  EXPECT_GT(model.coefficients[0], 0.7);
  EXPECT_GT(ar_r_squared(model, waits), 0.5);
}

}  // namespace
}  // namespace bolot::analysis

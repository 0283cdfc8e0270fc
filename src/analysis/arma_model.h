// ARMA(p, q) estimation via the Hannan-Rissanen procedure.
//
// Section 3: "we examine whether ARMA models are adequate to model
// queueing delays in communication networks.  This has consequences for
// the performance of predictive control mechanisms."  fit_ar (Yule-
// Walker) covers the pure-AR branch; this adds the moving-average part:
//
//   1. fit a long AR model and take its residuals as innovation
//      estimates e-hat_t;
//   2. regress x_t on (x_{t-1}..x_{t-p}, e-hat_{t-1}..e-hat_{t-q}) by
//      least squares.
//
// The result supports one-step prediction with innovation filtering and
// the same R^2 adequacy measure used for AR models.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace bolot::analysis {

struct ArmaModel {
  std::vector<double> ar;  // phi_1..phi_p
  std::vector<double> ma;  // theta_1..theta_q
  double mean = 0.0;
  double noise_variance = 0.0;

  std::size_t p() const { return ar.size(); }
  std::size_t q() const { return ma.size(); }
};

/// Fits ARMA(p, q) by Hannan-Rissanen.  p + q must be >= 1 and the series
/// comfortably longer than the long-AR stage order (throws otherwise, as
/// does a numerically singular regression).  The regression rows feed
/// NormalEquations as they are formed, so the fit holds O((p + q)^2)
/// state beyond the series.
ArmaModel fit_arma(std::span<const double> xs, std::size_t p, std::size_t q);

/// 1 - mse(residuals) / var(series): fraction of variance explained by
/// one-step ARMA prediction.  The residuals are the one-step-ahead
/// prediction errors of innovation filtering over the whole series, the
/// first max(p, q) excluded as burn-in; they are folded as they are
/// computed.  Throws when the series is no longer than the burn-in, or
/// constant.
double arma_r_squared(const ArmaModel& model, std::span<const double> xs);

}  // namespace bolot::analysis

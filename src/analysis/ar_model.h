// Autoregressive modeling of queueing-delay series.
//
// Section 3 of the paper describes parallel work testing whether ARMA-class
// models are adequate for queueing delays (they matter for predictive
// congestion control).  We implement the AR(p) branch: Yule-Walker
// estimation via Levinson-Durbin, one-step prediction, and residual
// diagnostics.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace bolot::analysis {

struct ArModel {
  std::vector<double> coefficients;  // phi_1..phi_p
  double mean = 0.0;                 // series mean removed before fitting
  double noise_variance = 0.0;       // innovation variance estimate

  std::size_t order() const { return coefficients.size(); }

  /// One-step forecast given the p most recent values (most recent last).
  /// Throws if fewer than p values are provided.
  double predict_next(std::span<const double> recent) const;
};

/// Fits AR(p) by solving the Yule-Walker equations with Levinson-Durbin.
/// Throws on empty/constant series or p >= series length.
ArModel fit_ar(std::span<const double> xs, std::size_t p);

/// Fraction of variance explained by one-step AR prediction:
/// 1 - mse(residuals) / var(series), where the residuals are the
/// one-step-ahead prediction errors from index p on, folded as they are
/// computed.  Throws when the series is no longer than p, or constant.
double ar_r_squared(const ArModel& model, std::span<const double> xs);

/// Akaike-information-criterion order selection: fits AR(1)..AR(max_order)
/// and picks the minimizer of AIC = n ln(sigma^2_p) + 2p.  This answers
/// the section-3 question "is a low-order AR model adequate?" — a sharp
/// AIC minimum at small p says yes.
struct ArOrderSelection {
  std::size_t best_order = 0;
  std::vector<double> aic_by_order;  // index p-1 holds AIC of AR(p)
};

/// Throws like fit_ar; max_order must be >= 1 and < xs.size().
ArOrderSelection select_ar_order(std::span<const double> xs,
                                 std::size_t max_order);

}  // namespace bolot::analysis

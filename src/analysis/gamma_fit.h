// Constant-plus-gamma delay model.
//
// Mukherjee (cited in section 1) found end-to-end delay distributions are
// best modeled as a constant plus a gamma distribution whose parameters
// depend on path and time of day.  We fit that model to rtt samples:
// the constant is the minimum (fixed propagation + transmission), the
// gamma is fit to the queueing excess by method of moments, and a
// Kolmogorov-Smirnov statistic quantifies adequacy.
#pragma once

#include <span>

namespace bolot::analysis {

struct ConstantPlusGamma {
  double constant = 0.0;  // location: estimated fixed delay
  double shape = 0.0;     // gamma k
  double scale = 0.0;     // gamma theta

  /// CDF of the fitted model at x (regularized lower incomplete gamma).
  double cdf(double x) const;
};

/// Fits by method of moments on (x - min(x)).  Throws if fewer than two
/// distinct samples.
ConstantPlusGamma fit_constant_plus_gamma(std::span<const double> xs);

/// Two-sided KS distance between the sample and the fitted model.
double ks_statistic(const ConstantPlusGamma& fit, std::span<const double> xs);

/// Regularized lower incomplete gamma P(k, x) (series + continued
/// fraction), exposed for tests.
double regularized_gamma_p(double k, double x);

}  // namespace bolot::analysis

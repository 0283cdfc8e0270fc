#include "analysis/arma_model.h"

#include <algorithm>
#include <stdexcept>

#include "analysis/ar_model.h"
#include "analysis/linalg.h"
#include "analysis/stats.h"

namespace bolot::analysis {

namespace {

/// Sum of the squared one-step prediction errors e_t over t >= max(p, q),
/// by innovation filtering with e_0 = 0:
///   e_t = x_t - mean - sum phi_i (x_{t-i} - mean) - sum theta_j e_{t-j}.
/// Holds only the last q errors.  Requires xs.size() > max(p, q).
double squared_innovations(const ArmaModel& model,
                           std::span<const double> xs) {
  const std::size_t p = model.p();
  const std::size_t q = model.q();
  const std::size_t burn_in = std::max(p, q);
  std::vector<double> recent(q, 0.0);  // recent[j] = e_{t-1-j}
  double sum = 0.0;
  for (std::size_t t = 0; t < xs.size(); ++t) {
    double e = 0.0;
    if (t > 0) {
      double forecast = model.mean;
      for (std::size_t i = 0; i < p && i < t; ++i) {
        forecast += model.ar[i] * (xs[t - 1 - i] - model.mean);
      }
      for (std::size_t j = 0; j < q && j < t; ++j) {
        forecast += model.ma[j] * recent[j];
      }
      e = xs[t] - forecast;
    }
    if (q > 0) {
      std::copy_backward(recent.begin(), recent.end() - 1, recent.end());
      recent[0] = e;
    }
    if (t >= burn_in) sum += e * e;
  }
  return sum;
}

}  // namespace

ArmaModel fit_arma(std::span<const double> xs, std::size_t p, std::size_t q) {
  if (p + q == 0) throw std::invalid_argument("fit_arma: p + q must be >= 1");
  // Stage-1 long AR order: generous but bounded by the sample.
  const std::size_t long_order =
      std::max<std::size_t>(std::max(p, q) * 2 + 4, 12);
  if (xs.size() < long_order * 4 + p + q + 8) {
    throw std::invalid_argument("fit_arma: series too short");
  }

  const Summary s = summarize(xs);

  // Stage 1: long AR fit; its one-step error at u >= long_order is the
  // innovation estimate e-hat_u.
  const ArModel long_ar = fit_ar(xs, long_order);
  const auto innovation = [&](std::size_t u) {
    return xs[u] - long_ar.predict_next(xs.subspan(u - long_order, long_order));
  };

  // Stage 2: regress centered x_t on lagged x and lagged innovations.
  // Valid rows start where every regressor is available; the length
  // check above leaves at least p + q of them.
  const std::size_t start = long_order + std::max(p, q);
  NormalEquations normal(p + q);
  std::vector<double> row(p + q, 0.0);
  for (std::size_t t = start; t < xs.size(); ++t) {
    for (std::size_t i = 0; i < p; ++i) row[i] = xs[t - 1 - i] - s.mean;
    for (std::size_t j = 0; j < q; ++j) row[p + j] = innovation(t - 1 - j);
    normal.add_row(row, xs[t] - s.mean);
  }
  const std::vector<double> beta = normal.solve();

  ArmaModel model;
  model.ar.assign(beta.begin(), beta.begin() + static_cast<long>(p));
  model.ma.assign(beta.begin() + static_cast<long>(p), beta.end());
  model.mean = s.mean;
  model.noise_variance =
      squared_innovations(model, xs) /
      static_cast<double>(xs.size() - std::max(p, q));
  return model;
}

double arma_r_squared(const ArmaModel& model, std::span<const double> xs) {
  const std::size_t burn_in = std::max(model.p(), model.q());
  if (xs.size() <= burn_in) {
    throw std::invalid_argument("arma_r_squared: series too short");
  }
  const double mse = squared_innovations(model, xs) /
                     static_cast<double>(xs.size() - burn_in);
  const Summary s = summarize(xs);
  if (s.variance <= 0.0) {
    throw std::invalid_argument("arma_r_squared: constant series");
  }
  return 1.0 - mse / s.variance;
}

}  // namespace bolot::analysis

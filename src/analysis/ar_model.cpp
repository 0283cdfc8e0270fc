#include "analysis/ar_model.h"

#include <cmath>
#include <stdexcept>

#include "analysis/stats.h"

namespace bolot::analysis {

double ArModel::predict_next(std::span<const double> recent) const {
  if (recent.size() < order()) {
    throw std::invalid_argument("ArModel: need p recent values");
  }
  double forecast = mean;
  const std::size_t p = order();
  for (std::size_t k = 0; k < p; ++k) {
    // coefficients[k] multiplies x_{t-k-1}: the most recent value is last
    // in `recent`.
    forecast += coefficients[k] * (recent[recent.size() - 1 - k] - mean);
  }
  return forecast;
}

ArModel fit_ar(std::span<const double> xs, std::size_t p) {
  if (p == 0) throw std::invalid_argument("fit_ar: order must be >= 1");
  if (xs.size() <= p) throw std::invalid_argument("fit_ar: series too short");
  const std::vector<double> acf = autocorrelation(xs, p);
  const Summary s = summarize(xs);

  // Levinson-Durbin recursion on the autocorrelation sequence.
  std::vector<double> phi(p + 1, 0.0), prev(p + 1, 0.0);
  double error = 1.0;  // normalized (acf[0] == 1)
  for (std::size_t k = 1; k <= p; ++k) {
    double acc = acf[k];
    for (std::size_t j = 1; j < k; ++j) acc -= prev[j] * acf[k - j];
    const double reflection = acc / error;
    phi = prev;
    phi[k] = reflection;
    for (std::size_t j = 1; j < k; ++j) {
      phi[j] = prev[j] - reflection * prev[k - j];
    }
    error *= (1.0 - reflection * reflection);
    if (error <= 0.0) {
      throw std::runtime_error("fit_ar: degenerate autocorrelation");
    }
    prev = phi;
  }

  ArModel model;
  model.coefficients.assign(phi.begin() + 1, phi.end());
  model.mean = s.mean;
  model.noise_variance = error * s.variance;
  return model;
}

ArOrderSelection select_ar_order(std::span<const double> xs,
                                 std::size_t max_order) {
  if (max_order == 0) {
    throw std::invalid_argument("select_ar_order: max_order must be >= 1");
  }
  ArOrderSelection selection;
  double best_aic = 0.0;
  const double n = static_cast<double>(xs.size());
  for (std::size_t p = 1; p <= max_order; ++p) {
    const ArModel model = fit_ar(xs, p);
    if (model.noise_variance <= 0.0) break;
    const double aic = n * std::log(model.noise_variance) +
                       2.0 * static_cast<double>(p);
    selection.aic_by_order.push_back(aic);
    if (p == 1 || aic < best_aic) {
      best_aic = aic;
      selection.best_order = p;
    }
  }
  if (selection.aic_by_order.empty()) {
    throw std::runtime_error("select_ar_order: no order could be fit");
  }
  return selection;
}

double ar_r_squared(const ArModel& model, std::span<const double> xs) {
  const std::size_t p = model.order();
  if (xs.size() <= p) {
    throw std::invalid_argument("ar_r_squared: series too short");
  }
  // Mean squared residual (not variance) so a biased predictor is penalized.
  double mse = 0.0;
  for (std::size_t t = p; t < xs.size(); ++t) {
    const double residual = xs[t] - model.predict_next(xs.subspan(t - p, p));
    mse += residual * residual;
  }
  const Summary ss = summarize(xs);
  if (ss.variance <= 0.0) throw std::invalid_argument("ar_r_squared: constant series");
  mse /= static_cast<double>(xs.size() - p);
  return 1.0 - mse / ss.variance;
}

}  // namespace bolot::analysis

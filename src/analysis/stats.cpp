#include "analysis/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bolot::analysis {

void StreamingSummary::push(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  // Welford's online algorithm: numerically stable single pass.
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double StreamingSummary::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

Summary StreamingSummary::summary() const {
  Summary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.mean = mean_;
  s.variance = variance();
  s.stddev = std::sqrt(s.variance);
  s.min = min_;
  s.max = max_;
  return s;
}

Summary summarize(std::span<const double> xs) {
  StreamingSummary summary;
  for (double x : xs) summary.push(x);
  return summary.summary();
}

double quantile(std::span<const double> xs, double q) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted_quantile(sorted, q);
}

double sorted_quantile(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile: empty sample");
  // A NaN q fails every comparison, and its index cast is undefined.
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile: q not in [0,1]");
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

std::vector<double> autocorrelation(std::span<const double> xs,
                                    std::size_t max_lag) {
  if (xs.empty()) throw std::invalid_argument("autocorrelation: empty sample");
  const Summary s = summarize(xs);
  const double n = static_cast<double>(xs.size());
  const double denom = s.variance * (n - 1.0);  // sum of squared deviations
  if (denom <= 0.0) {
    throw std::invalid_argument("autocorrelation: constant sample");
  }
  max_lag = std::min(max_lag, xs.size() - 1);
  std::vector<double> acf(max_lag + 1, 0.0);
  for (std::size_t lag = 0; lag <= max_lag; ++lag) {
    double sum = 0.0;
    for (std::size_t i = 0; i + lag < xs.size(); ++i) {
      sum += (xs[i] - s.mean) * (xs[i + lag] - s.mean);
    }
    acf[lag] = sum / denom;
  }
  return acf;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) throw std::invalid_argument("pearson: size mismatch");
  return pearson_of([&](auto&& visit) {
    for (std::size_t i = 0; i < xs.size(); ++i) visit(xs[i], ys[i]);
  });
}

}  // namespace bolot::analysis

#include "analysis/selfsimilar.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/stats.h"

namespace bolot::analysis {

namespace {

constexpr std::size_t kScales = 12;

/// kScales log-spaced aggregation levels in [min_scale, max_scale_fraction·n]
/// (the estimate needs several blocks per level).
std::vector<std::size_t> aggregation_levels(std::size_t n,
                                            std::size_t min_scale,
                                            double max_scale_fraction) {
  const auto max_scale = static_cast<std::size_t>(
      std::max(2.0, max_scale_fraction * static_cast<double>(n)));
  std::vector<std::size_t> levels;
  const double lo = std::log(static_cast<double>(min_scale));
  const double hi = std::log(static_cast<double>(max_scale));
  for (std::size_t k = 0; k < kScales; ++k) {
    const double f =
        static_cast<double>(k) / static_cast<double>(kScales - 1);
    const auto level =
        static_cast<std::size_t>(std::lround(std::exp(lo + f * (hi - lo))));
    if (levels.empty() || level > levels.back()) levels.push_back(level);
  }
  return levels;
}

/// Least-squares slope of y against x.
double fit_slope(const std::vector<double>& x, const std::vector<double>& y) {
  const Summary sx = summarize(x);
  const Summary sy = summarize(y);
  double cov = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    cov += (x[i] - sx.mean) * (y[i] - sy.mean);
  }
  const double var = sx.variance * static_cast<double>(x.size() - 1);
  if (var <= 0.0) throw std::runtime_error("fit_slope: degenerate x");
  return cov / var;
}

void validate(std::span<const double> xs) {
  if (xs.size() < 64) {
    throw std::invalid_argument("hurst estimate: need >= 64 samples");
  }
  if (summarize(xs).variance <= 0.0) {
    throw std::invalid_argument("hurst estimate: constant series");
  }
}

}  // namespace

HurstEstimate hurst_variance_time(std::span<const double> xs) {
  validate(xs);
  std::vector<double> log_m, log_var;
  for (const std::size_t m : aggregation_levels(xs.size(), 1, 0.1)) {
    const std::size_t blocks = xs.size() / m;
    if (blocks < 4) break;
    std::vector<double> means;
    means.reserve(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      double sum = 0.0;
      for (std::size_t i = 0; i < m; ++i) sum += xs[b * m + i];
      means.push_back(sum / static_cast<double>(m));
    }
    const double variance = summarize(means).variance;
    if (variance <= 0.0) continue;
    log_m.push_back(std::log(static_cast<double>(m)));
    log_var.push_back(std::log(variance));
  }
  if (log_m.size() < 3) {
    throw std::invalid_argument("hurst_variance_time: too few usable scales");
  }
  HurstEstimate estimate;
  estimate.slope = fit_slope(log_m, log_var);
  estimate.hurst = std::clamp(1.0 + estimate.slope / 2.0, 0.0, 1.0);
  estimate.scales = log_m.size();
  return estimate;
}

HurstEstimate hurst_rescaled_range(std::span<const double> xs) {
  validate(xs);
  std::vector<double> log_n, log_rs;
  for (const std::size_t n : aggregation_levels(xs.size(), 8, 0.25)) {
    const std::size_t blocks = xs.size() / n;
    if (blocks < 2) continue;
    double rs_sum = 0.0;
    std::size_t rs_count = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto block = xs.subspan(b * n, n);
      const Summary s = summarize(block);
      if (s.stddev <= 0.0) continue;
      // Range of the mean-adjusted cumulative sum.
      double cumulative = 0.0;
      double lo = 0.0, hi = 0.0;
      for (const double value : block) {
        cumulative += value - s.mean;
        lo = std::min(lo, cumulative);
        hi = std::max(hi, cumulative);
      }
      rs_sum += (hi - lo) / s.stddev;
      ++rs_count;
    }
    if (rs_count == 0) continue;
    log_n.push_back(std::log(static_cast<double>(n)));
    log_rs.push_back(std::log(rs_sum / static_cast<double>(rs_count)));
  }
  if (log_n.size() < 3) {
    throw std::invalid_argument("hurst_rescaled_range: too few usable scales");
  }
  HurstEstimate estimate;
  estimate.slope = fit_slope(log_n, log_rs);
  estimate.hurst = std::clamp(estimate.slope, 0.0, 1.0);
  estimate.scales = log_n.size();
  return estimate;
}

double interarrival_jitter_ms(std::span<const double> rtts_ms) {
  if (rtts_ms.size() < 2) {
    throw std::invalid_argument("interarrival_jitter_ms: need >= 2 samples");
  }
  double jitter = 0.0;
  for (std::size_t i = 1; i < rtts_ms.size(); ++i) {
    const double d = std::abs(rtts_ms[i] - rtts_ms[i - 1]);
    jitter += (d - jitter) / 16.0;
  }
  return jitter;
}

}  // namespace bolot::analysis

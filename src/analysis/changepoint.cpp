#include "analysis/changepoint.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/stats.h"

namespace bolot::analysis {

namespace {

/// Floor on the CUSUM reference sigma (fraction of |mean|), so a
/// noiseless training window (an idle simulated path) still yields a
/// usable detector instead of dividing by zero.
constexpr double kSigmaFloorFraction = 0.001;
/// A segmentation split must improve the fit by at least this t-like
/// statistic (difference of means over pooled standard error).
constexpr double kMinTStatistic = 6.0;
constexpr std::size_t kMaxChangepoints = 16;
/// Minimum segment length of a segmentation split.
constexpr std::size_t kMinSegment = 30;

}  // namespace

CusumResult cusum_detect(std::span<const double> xs,
                         const CusumOptions& options) {
  if (xs.size() < options.training_samples + 2) {
    throw std::invalid_argument("cusum_detect: series too short");
  }
  const Summary reference =
      summarize(xs.subspan(0, options.training_samples));
  const double sigma =
      std::max(reference.stddev,
               kSigmaFloorFraction * std::abs(reference.mean) +
                   1e-12);

  CusumResult result;
  result.reference_mean = reference.mean;
  result.reference_sigma = sigma;

  const double k = options.slack_sigmas * sigma;
  const double h = options.threshold_sigmas * sigma;
  double up = 0.0;
  double down = 0.0;
  for (std::size_t i = options.training_samples; i < xs.size(); ++i) {
    const double deviation = xs[i] - reference.mean;
    up = std::max(0.0, up + deviation - k);
    down = std::max(0.0, down - deviation - k);
    if (up > h || down > h) {
      result.alarm_index = i;
      result.shifted_up = up > h;
      return result;
    }
  }
  return result;
}

namespace {

struct SplitCandidate {
  std::size_t index = 0;  // first sample of the right segment
  double t_statistic = 0.0;
};

/// Best mean-shift split of xs[lo, hi): maximizes the two-sample t-like
/// statistic across all cut points respecting kMinSegment.
SplitCandidate best_split(std::span<const double> xs, std::size_t lo,
                          std::size_t hi) {
  SplitCandidate best;
  const std::size_t n = hi - lo;
  if (n < 2 * kMinSegment) return best;

  // Prefix sums for O(1) segment means/variances.
  std::vector<double> sum(n + 1, 0.0), sum_sq(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    sum[i + 1] = sum[i] + xs[lo + i];
    sum_sq[i + 1] = sum_sq[i] + xs[lo + i] * xs[lo + i];
  }
  for (std::size_t cut = kMinSegment; cut + kMinSegment <= n; ++cut) {
    const double n_left = static_cast<double>(cut);
    const double n_right = static_cast<double>(n - cut);
    const double mean_left = sum[cut] / n_left;
    const double mean_right = (sum[n] - sum[cut]) / n_right;
    const double var_left =
        std::max(0.0, sum_sq[cut] / n_left - mean_left * mean_left);
    const double var_right = std::max(
        0.0, (sum_sq[n] - sum_sq[cut]) / n_right - mean_right * mean_right);
    const double se =
        std::sqrt(var_left / n_left + var_right / n_right + 1e-12);
    const double t = std::abs(mean_left - mean_right) / se;
    if (t > best.t_statistic) {
      best.t_statistic = t;
      best.index = lo + cut;
    }
  }
  return best;
}

void segment_recursive(std::span<const double> xs, std::size_t lo,
                       std::size_t hi, std::vector<std::size_t>& changes) {
  if (changes.size() >= kMaxChangepoints) return;
  const SplitCandidate split = best_split(xs, lo, hi);
  if (split.t_statistic < kMinTStatistic) return;
  changes.push_back(split.index);
  segment_recursive(xs, lo, split.index, changes);
  segment_recursive(xs, split.index, hi, changes);
}

}  // namespace

std::vector<std::size_t> segment_mean_shifts(std::span<const double> xs) {
  std::vector<std::size_t> changes;
  if (xs.size() >= 2 * kMinSegment) {
    segment_recursive(xs, 0, xs.size(), changes);
  }
  std::sort(changes.begin(), changes.end());
  return changes;
}

}  // namespace bolot::analysis

// Change-point detection for delay time series.
//
// Sanghi et al. used NetDyn traces to spot network events: route changes
// shift the rtt floor by a fixed amount, and faulty gateways produce
// periodic spikes (the "every 90 seconds" story in the paper's
// introduction).  Two detectors cover those cases:
//
//   * cusum_detect: a two-sided CUSUM on the mean — flags the first index
//     where the cumulative deviation exceeds a threshold, online-capable
//     and robust to noise;
//   * segment_mean_shifts: offline binary segmentation — recursively
//     splits the series at the strongest mean shift until no split is
//     significant, returning all change points.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace bolot::analysis {

struct CusumOptions {
  /// Allowed slack around the reference mean, in units of the reference
  /// standard deviation (the "k" of CUSUM; half the shift you want to
  /// detect).
  double slack_sigmas = 0.5;
  /// Alarm threshold in reference standard deviations (the "h").
  double threshold_sigmas = 8.0;
  /// How many leading samples establish the reference mean/sigma.
  std::size_t training_samples = 100;
};

struct CusumResult {
  /// First index whose cumulative statistic crossed the threshold, or
  /// nullopt if no alarm fired.
  std::optional<std::size_t> alarm_index;
  bool shifted_up = false;  // direction of the detected shift
  double reference_mean = 0.0;
  double reference_sigma = 0.0;
};

/// Throws if the series is shorter than training_samples + 2.
CusumResult cusum_detect(std::span<const double> xs,
                         const CusumOptions& options = {});

/// Offline mean-shift segmentation: returns change indices in increasing
/// order (each index is the first sample of a new segment).  Splits that
/// would leave a segment shorter than 30 samples are not considered.
std::vector<std::size_t> segment_mean_shifts(std::span<const double> xs);

}  // namespace bolot::analysis

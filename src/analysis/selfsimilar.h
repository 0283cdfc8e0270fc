// Self-similarity estimators for delay/load series.
//
// The paper's stated goal is to "study the structure of the Internet load
// over different time scales"; within a year of its publication, Leland
// et al. showed that structure to be self-similar.  These estimators let
// the same probe traces answer the follow-up question: is the measured
// load long-range dependent?
//
//   * variance-time plot: slope beta of log Var(X^(m)) vs log m gives
//     H = 1 - beta/2;
//   * rescaled range (R/S): slope of log E[R/S] vs log n gives H.
//
// H ~ 0.5 means short-range dependence (Poisson-like); H -> 1 means
// long-range dependence / burstiness persisting across scales.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace bolot::analysis {

struct HurstEstimate {
  double hurst = 0.5;
  double slope = 0.0;     // the fitted log-log slope
  std::size_t scales = 0; // how many aggregation levels entered the fit
};

/// Variance-time estimator over 12 log-spaced aggregation levels from 1 to
/// 0.1·n.  Throws on series shorter than ~64 samples or zero variance.
HurstEstimate hurst_variance_time(std::span<const double> xs);

/// Rescaled-range (R/S) estimator over 12 log-spaced block sizes from 8 to
/// 0.25·n.  Same preconditions.
HurstEstimate hurst_rescaled_range(std::span<const double> xs);

/// RFC-3550-style interarrival jitter of a probe trace: the exponential
/// average J += (|D| - J)/16 over transit-time differences D of
/// consecutive received probes, in milliseconds.  (With only round trips
/// available, rtt differences stand in for transit differences — the send
/// clock cancels.)  Throws when fewer than two probes were received.
double interarrival_jitter_ms(std::span<const double> rtts_ms);

}  // namespace bolot::analysis

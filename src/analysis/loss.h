// Loss-process analysis (paper section 5).
//
//   ulp = P(rtt_n = 0)                       unconditional loss probability
//   clp = P(rtt_{n+1} = 0 | rtt_n = 0)       conditional loss probability
//   plg = 1 / (1 - clp)                      packet loss gap (mean burst
//                                            length under stationarity)
//
// The paper's headline finding: clp >> ulp at small delta (bursty loss when
// probes use a large share of the bottleneck), while clp -> ulp and
// plg -> ~1 at large delta (losses essentially random).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/probe_trace.h"
#include "util/rng.h"

namespace bolot::analysis {

/// Both loss-gap estimators side by side.  `from_clp` is the model-based
/// gap 1/(1-clp) (infinite when clp == 1, i.e. no loss run ever ended
/// inside the trace); `from_bursts` is the empirical mean loss-run
/// length.  They agree asymptotically for a stationary loss process but
/// can disagree on short traces: from_clp weights every (lost, next)
/// pair equally, while from_bursts weights every *run* equally, so a
/// single long burst in a short trace pulls from_clp up much harder.
/// `consistent` is false when either is non-finite or they differ by
/// more than 10 % of from_bursts.
struct LossGapEstimate {
  double from_clp = 0.0;
  double from_bursts = 0.0;
  bool consistent = false;
};

struct LossStats {
  std::size_t probes = 0;
  std::size_t losses = 0;
  double ulp = 0.0;
  double clp = 0.0;           // 0 when no loss-followed-by-anything pairs
  double plg_from_clp = 0.0;  // 1 / (1 - clp); INFINITY when clp == 1
  double mean_burst_length = 0.0;  // empirical mean loss-run length
  std::vector<std::size_t> burst_length_counts;  // index k = runs of length k+1

  /// Reports both gap estimators and whether they agree within 10 % (see
  /// LossGapEstimate for why they can differ on short traces).  Consumers
  /// that must pick one (e.g. bench/fec_ablation) should prefer
  /// from_bursts, which stays finite, and print which estimator they used.
  LossGapEstimate loss_gap() const;
};

/// Computes the loss statistics from a 0/1 loss indicator sequence
/// (1 = lost), as a fold over StreamingLossState (analysis/streaming.h).
/// The trace overload decides loss by ProbeRecord::received.  Throws on
/// an empty sequence.
LossStats loss_stats(std::span<const std::uint8_t> losses);
LossStats loss_stats(const ProbeTrace& trace);

/// Two-state Gilbert model fit: p = P(lost_{n+1} | ok_n),
/// q = P(ok_{n+1} | lost_n).  Stationary loss rate = p / (p + q) and
/// clp = 1 - q, for cross-checking against LossStats.
///
/// Edge case: a sequence that never leaves one state gives no evidence
/// about the other state's transition rate, so the chain is not
/// identifiable.  fit_gilbert flags that with `degenerate = true` and
/// clamps the free parameter so stationary_loss() matches the empirical
/// loss rate: all-lost => p = 1, q = 0 (stationary 1.0, not the old
/// buggy 0.0); all-ok => p = 0, q = 1 (stationary 0.0).  Downstream
/// consumers that need a real chain (e.g. a sim::GilbertChannelConfig
/// built from the fit's p and q) must reject degenerate fits rather than
/// simulate from a guessed parameter.
struct GilbertFit {
  double p = 0.0;
  double q = 0.0;
  /// True when the input sequence stayed in one state throughout, so one
  /// of p/q was never observed (see above).
  bool degenerate = false;
  double stationary_loss() const {
    return (p + q) > 0.0 ? p / (p + q) : 0.0;
  }
};

/// A fold over StreamingLossState; throws below two samples.
GilbertFit fit_gilbert(std::span<const std::uint8_t> losses);

/// Simulates a loss indicator sequence from a Gilbert model (for FEC
/// design studies: fit a model to a short measurement, then generate
/// arbitrarily long synthetic loss processes with the same structure).
std::vector<std::uint8_t> generate_gilbert(const GilbertFit& fit,
                                           std::size_t n, Rng& rng);

/// Wald-Wolfowitz runs test on the loss indicator sequence.  Returns the
/// z-score: |z| <~ 2 is consistent with independent (random) losses,
/// strongly negative z means clustering.  Throws if either symbol is
/// absent (the statistic is undefined).
double loss_runs_test_z(std::span<const std::uint8_t> losses);

/// Probability that a k-repair FEC scheme recovers a random lost packet,
/// i.e. the fraction of losses that lie in a burst of length <= k (a burst
/// no longer than k can be repaired by k redundant packets; the paper's
/// section-5 audio discussion uses k = 1: repeat the previous packet).
double fec_recoverable_fraction(std::span<const std::uint8_t> losses,
                                std::size_t k);

/// The section-5 design task turned into a function: pick the smallest
/// repair depth k whose residual loss (unrepairable fraction x ulp) meets
/// the application's target.  If even max_k cannot meet it, the returned
/// plan carries k = max_k, feasible = false.
struct FecPlan {
  std::size_t k = 0;           // redundancy depth (0 = no repair needed)
  double residual_loss = 0.0;  // post-repair loss rate at this k
  bool feasible = true;
};

FecPlan design_fec(std::span<const std::uint8_t> losses,
                   double target_residual_loss, std::size_t max_k = 16);

}  // namespace bolot::analysis

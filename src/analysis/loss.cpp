#include "analysis/loss.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/streaming.h"

namespace bolot::analysis {

namespace {

/// Share of the losses in `s` that lie in a burst of length <= k.
double recoverable_share(const LossStats& s, std::size_t k) {
  if (s.losses == 0) return 1.0;
  const std::size_t longest = std::min(k, s.burst_length_counts.size());
  std::size_t recoverable = 0;
  for (std::size_t len = 1; len <= longest; ++len) {
    recoverable += s.burst_length_counts[len - 1] * len;
  }
  return static_cast<double>(recoverable) / static_cast<double>(s.losses);
}

}  // namespace

LossStats loss_stats(std::span<const std::uint8_t> losses) {
  if (losses.empty()) throw std::invalid_argument("loss_stats: empty input");
  StreamingLossState state;
  for (const std::uint8_t v : losses) state.push_lost(v != 0);
  return state.stats();
}

LossStats loss_stats(const ProbeTrace& trace) {
  validate_probe_order(trace, "loss_stats");
  const auto indicators = trace.loss_indicators();
  return loss_stats(indicators);
}

LossGapEstimate LossStats::loss_gap() const {
  LossGapEstimate gap;
  gap.from_clp = plg_from_clp;
  gap.from_bursts = mean_burst_length;
  if (std::isfinite(gap.from_clp) && std::isfinite(gap.from_bursts) &&
      gap.from_bursts > 0.0) {
    gap.consistent = std::abs(gap.from_clp - gap.from_bursts) <=
                     0.1 * gap.from_bursts;
  }
  return gap;
}

GilbertFit fit_gilbert(std::span<const std::uint8_t> losses) {
  if (losses.size() < 2) {
    throw std::invalid_argument("fit_gilbert: need at least two samples");
  }
  StreamingLossState state;
  for (const std::uint8_t v : losses) state.push_lost(v != 0);
  return state.gilbert();
}

std::vector<std::uint8_t> generate_gilbert(const GilbertFit& fit,
                                           std::size_t n, Rng& rng) {
  if (fit.p < 0.0 || fit.p > 1.0 || fit.q < 0.0 || fit.q > 1.0) {
    throw std::invalid_argument("generate_gilbert: probabilities outside [0,1]");
  }
  std::vector<std::uint8_t> losses;
  losses.reserve(n);
  bool lost = rng.chance(fit.stationary_loss());
  for (std::size_t i = 0; i < n; ++i) {
    losses.push_back(lost ? 1 : 0);
    lost = lost ? !rng.chance(fit.q) : rng.chance(fit.p);
  }
  return losses;
}

double loss_runs_test_z(std::span<const std::uint8_t> losses) {
  std::size_t n1 = 0, n0 = 0;
  for (auto v : losses) (v != 0 ? n1 : n0)++;
  if (n0 == 0 || n1 == 0) {
    throw std::invalid_argument("loss_runs_test_z: need both outcomes");
  }
  std::size_t runs = 1;
  for (std::size_t n = 1; n < losses.size(); ++n) {
    if ((losses[n] != 0) != (losses[n - 1] != 0)) ++runs;
  }
  const double a = static_cast<double>(n0);
  const double b = static_cast<double>(n1);
  const double n = a + b;
  const double expected = 2.0 * a * b / n + 1.0;
  const double variance =
      2.0 * a * b * (2.0 * a * b - n) / (n * n * (n - 1.0));
  if (variance <= 0.0) {
    throw std::invalid_argument("loss_runs_test_z: degenerate variance");
  }
  return (static_cast<double>(runs) - expected) / std::sqrt(variance);
}

double fec_recoverable_fraction(std::span<const std::uint8_t> losses,
                                std::size_t k) {
  return recoverable_share(loss_stats(losses), k);
}

FecPlan design_fec(std::span<const std::uint8_t> losses,
                   double target_residual_loss, std::size_t max_k) {
  // NaN fails every comparison: unchecked, it would return an
  // infeasible max_k plan instead of an error.
  if (!(target_residual_loss >= 0.0)) {
    throw std::invalid_argument("design_fec: target must be >= 0");
  }
  const LossStats stats = loss_stats(losses);
  FecPlan plan;
  for (std::size_t k = 0; k <= max_k; ++k) {
    const double recoverable = k == 0 ? 0.0 : recoverable_share(stats, k);
    plan.k = k;
    plan.residual_loss = stats.ulp * (1.0 - recoverable);
    if (plan.residual_loss <= target_residual_loss) {
      plan.feasible = true;
      return plan;
    }
  }
  plan.feasible = false;
  return plan;
}

}  // namespace bolot::analysis

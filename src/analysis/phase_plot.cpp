#include "analysis/phase_plot.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "analysis/histogram.h"

namespace bolot::analysis {

namespace {

/// Band half-width around each line: +-1 tick of the paper's 3.906 ms
/// source clock, which spreads clusters over adjacent ticks.
constexpr double kToleranceMs = 4.0;
constexpr double kHistogramBinMs = 1.0;
/// The compression cluster is searched among rtt_n - rtt_{n+1} values
/// above this fraction of delta (below it, the mass near 0 from the
/// diagonal dominates).
constexpr double kMinInterceptFraction = 0.3;
/// Minimum fraction of pairs in the modal bin to accept a compression
/// cluster.
constexpr double kMinClusterMass = 0.01;

}  // namespace

namespace detail {

TickPair heaviest_adjacent_ticks(std::vector<std::int64_t> keys,
                                 std::int64_t tick) {
  std::sort(keys.begin(), keys.end());
  TickPair best;
  for (auto run = keys.begin(); run != keys.end();) {
    const auto run_end = std::upper_bound(run, keys.end(), *run);
    const auto [pair_begin, pair_end] =
        std::equal_range(run, keys.end(), *run + tick);
    const auto count = static_cast<std::uint64_t>((run_end - run) +
                                                  (pair_end - pair_begin));
    if (count > best.count) best = {*run, count};
    run = run_end;
  }
  return best;
}

}  // namespace detail

PhasePlot build_phase_plot(const ProbeTrace& trace) {
  validate_probe_order(trace, "build_phase_plot");
  PhasePlot plot;
  const auto& records = trace.records;
  for (std::size_t n = 0; n + 1 < records.size(); ++n) {
    if (!records[n].received || !records[n + 1].received) continue;
    plot.x.push_back(records[n].rtt.millis());
    plot.y.push_back(records[n + 1].rtt.millis());
  }
  return plot;
}

PhaseAnalysis analyze_phase_plot(const ProbeTrace& trace) {
  const PhasePlot plot = build_phase_plot(trace);
  if (plot.size() == 0) {
    throw std::invalid_argument("analyze_phase_plot: no consecutive pairs");
  }
  const double delta_ms = trace.delta.millis();

  PhaseAnalysis result;
  result.fixed_delay_ms = std::numeric_limits<double>::infinity();
  for (double v : plot.x) result.fixed_delay_ms = std::min(result.fixed_delay_ms, v);
  for (double v : plot.y) result.fixed_delay_ms = std::min(result.fixed_delay_ms, v);

  // Compression pairs satisfy rtt_n - rtt_{n+1} = delta - P/mu = c > 0.
  // Collect the positive descents above kMinInterceptFraction * delta
  // (the mass near 0 belongs to the diagonal).
  const double d_lo = kMinInterceptFraction * delta_ms;
  std::vector<double> candidates;
  for (std::size_t i = 0; i < plot.size(); ++i) {
    const double d = plot.x[i] - plot.y[i];
    if (d > d_lo) candidates.push_back(d);
  }

  std::optional<double> intercept;
  const double tick_ms = trace.clock_tick.millis();
  if (!candidates.empty()) {
    if (tick_ms > 0.0) {
      // Quantized clocks make descents discrete (multiples of the tick);
      // the true intercept's mass splits over exactly two adjacent tick
      // values, so find the heaviest adjacent pair and average its
      // samples — the centroid over both quantization images is
      // unbiased.
      std::vector<std::int64_t> keys;
      keys.reserve(candidates.size());
      for (double d : candidates) {
        keys.push_back(static_cast<std::int64_t>(std::llround(d * 1e3)));
      }
      const detail::TickPair best = detail::heaviest_adjacent_ticks(
          std::move(keys),
          static_cast<std::int64_t>(std::llround(tick_ms * 1e3)));
      if (static_cast<double>(best.count) >=
          kMinClusterMass * static_cast<double>(plot.size())) {
        const double lo = static_cast<double>(best.key) * 1e-3 - 1e-3;
        const double hi = lo + tick_ms + 2e-3;
        double sum = 0.0;
        std::size_t count = 0;
        for (double d : candidates) {
          if (d > lo && d <= hi) {
            sum += d;
            ++count;
          }
        }
        if (count > 0) intercept = sum / static_cast<double>(count);
      }
    } else {
      // Exact clocks: modal bin of a fine histogram, then the centroid of
      // the samples in that bin and its neighbors.
      Histogram descents(
          d_lo, delta_ms,
          std::max<std::size_t>(
              8, static_cast<std::size_t>((delta_ms - d_lo) /
                                          kHistogramBinMs)));
      for (double d : candidates) descents.add(d);
      double best_mass = 0.0;
      std::optional<double> modal;
      for (std::size_t bin = 0; bin < descents.bin_count(); ++bin) {
        const double mass = static_cast<double>(descents.count(bin)) /
                            static_cast<double>(plot.size());
        if (mass > best_mass && mass >= kMinClusterMass) {
          best_mass = mass;
          modal = descents.bin_center(bin);
        }
      }
      if (modal) {
        double sum = 0.0;
        std::size_t count = 0;
        for (double d : candidates) {
          if (std::abs(d - *modal) <= descents.bin_width()) {
            sum += d;
            ++count;
          }
        }
        if (count > 0) intercept = sum / static_cast<double>(count);
      }
    }
  }

  if (intercept) {
    result.compression_intercept_ms = *intercept;
    const double service_ms = delta_ms - *intercept;  // P/mu
    if (service_ms > 0.0) {
      result.bottleneck_bps =
          static_cast<double>(trace.probe_wire_bytes * 8) / (service_ms * 1e-3);
    }
  }

  // Band memberships.
  std::size_t on_line = 0;
  std::size_t on_diagonal = 0;
  for (std::size_t i = 0; i < plot.size(); ++i) {
    const double d = plot.x[i] - plot.y[i];
    if (intercept && std::abs(d - *intercept) <= kToleranceMs) ++on_line;
    if (std::abs(d) <= kToleranceMs) ++on_diagonal;
  }
  result.compression_fraction =
      static_cast<double>(on_line) / static_cast<double>(plot.size());
  result.diagonal_fraction =
      static_cast<double>(on_diagonal) / static_cast<double>(plot.size());
  return result;
}

}  // namespace bolot::analysis

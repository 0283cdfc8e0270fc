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
  std::size_t pairs = 0;
  for_each_received_pair(trace, [&pairs](double, double) { ++pairs; });
  PhasePlot plot;
  plot.x.reserve(pairs);
  plot.y.reserve(pairs);
  for_each_received_pair(trace, [&plot](double x, double y) {
    plot.x.push_back(x);
    plot.y.push_back(y);
  });
  return plot;
}

PhaseAnalysis analyze_phase_plot(const ProbeTrace& trace) {
  validate_probe_order(trace, "analyze_phase_plot");
  const double delta_ms = trace.delta.millis();
  // Compression pairs satisfy rtt_n - rtt_{n+1} = delta - P/mu = c > 0.
  // The candidates are the positive descents above
  // kMinInterceptFraction * delta (the mass near 0 belongs to the
  // diagonal).
  const double d_lo = kMinInterceptFraction * delta_ms;
  const auto for_each_candidate = [&](auto&& visit) {
    for_each_received_pair(trace, [&](double x, double y) {
      const double d = x - y;
      if (d > d_lo) visit(d);
    });
  };

  PhaseAnalysis result;
  result.fixed_delay_ms = std::numeric_limits<double>::infinity();
  std::size_t pairs = 0;
  std::size_t candidates = 0;
  std::size_t on_diagonal = 0;
  for_each_received_pair(trace, [&](double x, double y) {
    ++pairs;
    result.fixed_delay_ms = std::min({result.fixed_delay_ms, x, y});
    const double d = x - y;
    if (d > d_lo) ++candidates;
    if (std::abs(d) <= kToleranceMs) ++on_diagonal;
  });
  if (pairs == 0) {
    throw std::invalid_argument("analyze_phase_plot: no consecutive pairs");
  }

  // Mean of the candidates that `in_cluster` accepts; unset if none does.
  const auto centroid = [&](auto&& in_cluster) -> std::optional<double> {
    double sum = 0.0;
    std::size_t count = 0;
    for_each_candidate([&](double d) {
      if (in_cluster(d)) {
        sum += d;
        ++count;
      }
    });
    if (count == 0) return std::nullopt;
    return sum / static_cast<double>(count);
  };

  std::optional<double> intercept;
  const double tick_ms = trace.clock_tick.millis();
  if (candidates > 0) {
    if (tick_ms > 0.0) {
      // Quantized clocks make descents discrete (multiples of the tick);
      // the true intercept's mass splits over exactly two adjacent tick
      // values, so find the heaviest adjacent pair and average its
      // samples — the centroid over both quantization images is
      // unbiased.
      std::vector<std::int64_t> keys;
      keys.reserve(candidates);
      for_each_candidate([&keys](double d) {
        keys.push_back(static_cast<std::int64_t>(std::llround(d * 1e3)));
      });
      const detail::TickPair best = detail::heaviest_adjacent_ticks(
          std::move(keys),
          static_cast<std::int64_t>(std::llround(tick_ms * 1e3)));
      if (static_cast<double>(best.count) >=
          kMinClusterMass * static_cast<double>(pairs)) {
        const double lo = static_cast<double>(best.key) * 1e-3 - 1e-3;
        const double hi = lo + tick_ms + 2e-3;
        intercept = centroid([&](double d) { return d > lo && d <= hi; });
      }
    } else {
      // Exact clocks: modal bin of a fine histogram, then the centroid of
      // the samples in that bin and its neighbors.
      Histogram descents(
          d_lo, delta_ms,
          std::max<std::size_t>(
              8, static_cast<std::size_t>((delta_ms - d_lo) /
                                          kHistogramBinMs)));
      for_each_candidate([&descents](double d) { descents.add(d); });
      double best_mass = 0.0;
      std::optional<double> modal;
      for (std::size_t bin = 0; bin < descents.bin_count(); ++bin) {
        const double mass = static_cast<double>(descents.count(bin)) /
                            static_cast<double>(pairs);
        if (mass > best_mass && mass >= kMinClusterMass) {
          best_mass = mass;
          modal = descents.bin_center(bin);
        }
      }
      if (modal) {
        intercept = centroid([&](double d) {
          return std::abs(d - *modal) <= descents.bin_width();
        });
      }
    }
  }

  std::size_t on_line = 0;
  if (intercept) {
    result.compression_intercept_ms = *intercept;
    const double service_ms = delta_ms - *intercept;  // P/mu
    if (service_ms > 0.0) {
      result.bottleneck_bps =
          static_cast<double>(trace.probe_wire_bytes * 8) / (service_ms * 1e-3);
    }
    for_each_received_pair(trace, [&](double x, double y) {
      const double d = x - y;
      if (std::abs(d - *intercept) <= kToleranceMs) ++on_line;
    });
  }
  result.compression_fraction =
      static_cast<double>(on_line) / static_cast<double>(pairs);
  result.diagonal_fraction =
      static_cast<double>(on_diagonal) / static_cast<double>(pairs);
  return result;
}

}  // namespace bolot::analysis

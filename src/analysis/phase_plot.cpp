#include "analysis/phase_plot.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "analysis/lindley.h"

namespace bolot::analysis {

namespace {

/// Band half-width around each line: +-1 tick of the paper's 3.906 ms
/// source clock, which spreads clusters over adjacent ticks.
constexpr double kToleranceMs = 4.0;

}  // namespace

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
  PhaseAnalysis result;
  result.fixed_delay_ms = std::numeric_limits<double>::infinity();
  std::size_t pairs = 0;
  std::size_t on_diagonal = 0;
  for_each_received_pair(trace, [&](double x, double y) {
    ++pairs;
    result.fixed_delay_ms = std::min({result.fixed_delay_ms, x, y});
    if (std::abs(x - y) <= kToleranceMs) ++on_diagonal;
  });
  if (pairs == 0) {
    throw std::invalid_argument("analyze_phase_plot: no consecutive pairs");
  }

  // Compression pairs satisfy rtt_n - rtt_{n+1} = delta - P/mu, and
  // estimate_bottleneck finds P/mu from the same pairs.
  try {
    result.compression_intercept_ms =
        trace.delta.millis() - estimate_bottleneck(trace).service_time_ms;
  } catch (const std::runtime_error&) {
    // No compression cluster: the intercept stays unset.
  }
  std::size_t on_line = 0;
  if (const auto intercept = result.compression_intercept_ms) {
    for_each_received_pair(trace, [&](double x, double y) {
      if (std::abs(x - y - *intercept) <= kToleranceMs) ++on_line;
    });
  }
  result.compression_fraction =
      static_cast<double>(on_line) / static_cast<double>(pairs);
  result.diagonal_fraction =
      static_cast<double>(on_diagonal) / static_cast<double>(pairs);
  return result;
}

}  // namespace bolot::analysis

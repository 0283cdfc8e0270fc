// Phase-plot analysis (paper section 4).
//
// A phase plot draws a marker at (rtt_n, rtt_{n+1}).  The paper shows that
// probe compression puts points on the line rtt_{n+1} = rtt_n + P/mu - delta,
// whose x-intercept delta - P/mu yields the bottleneck bandwidth mu, and
// that the minimum-delay corner estimates the fixed round-trip delay D.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/probe_trace.h"
#include "util/time.h"

namespace bolot::analysis {

/// The (rtt_n, rtt_{n+1}) point cloud in milliseconds, built from pairs of
/// consecutively *received* probes (a lost probe breaks the pair, matching
/// the paper's plots where rtt = 0 points fall on the axes).
struct PhasePlot {
  std::vector<double> x;  // rtt_n
  std::vector<double> y;  // rtt_{n+1}

  std::size_t size() const { return x.size(); }
};

/// Exactly sized: counts the pairs, then fills them.
PhasePlot build_phase_plot(const ProbeTrace& trace);

struct PhaseAnalysis {
  double fixed_delay_ms = 0.0;       // D-hat: minimum observed rtt
  /// x-intercept of the compression line, delta - P/mu, in ms; unset when
  /// no compression cluster was found (e.g. large delta, Fig. 4).
  std::optional<double> compression_intercept_ms;
  /// mu-hat in bit/s, derived from the intercept; unset with the above.
  std::optional<double> bottleneck_bps;
  /// Fraction of phase points within 4 ms (+-1 tick of the paper's
  /// 3.906 ms source clock) of the compression line (the paper's
  /// indicator that probes accumulate behind cross traffic).
  double compression_fraction = 0.0;
  /// Fraction of points within the same 4 ms of the diagonal y = x.
  double diagonal_fraction = 0.0;
};

/// Analyzes a trace directly (uses trace.delta and trace.probe_wire_bytes
/// for the mu-hat computation).  Folds over the record pairs without
/// building the PhasePlot; on quantized clocks it holds one key per
/// compression candidate.
PhaseAnalysis analyze_phase_plot(const ProbeTrace& trace);

namespace detail {

/// The adjacent tick pair (key, key + tick) with the largest combined
/// count among `keys` (microsecond-quantized samples, in any order).  A
/// quantized clock splits a point mass over exactly two adjacent ticks, so
/// this is where analyze_phase_plot and estimate_bottleneck look for their
/// compression cluster.  Ties keep the first pair in key order;
/// count == 0 when `keys` is empty.
struct TickPair {
  std::int64_t key = 0;
  std::uint64_t count = 0;
};
TickPair heaviest_adjacent_ticks(std::vector<std::int64_t> keys,
                                 std::int64_t tick);

}  // namespace detail

}  // namespace bolot::analysis

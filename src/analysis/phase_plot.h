// Phase-plot analysis (paper section 4).
//
// A phase plot draws a marker at (rtt_n, rtt_{n+1}).  The paper shows that
// probe compression puts points on the line rtt_{n+1} = rtt_n + P/mu - delta,
// whose x-intercept delta - P/mu yields the bottleneck bandwidth mu, and
// that the minimum-delay corner estimates the fixed round-trip delay D.
// The probe service time P/mu is read once, by estimate_bottleneck
// (lindley.h), and the intercept is derived from it.
#pragma once

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
  /// x-intercept of the compression line, delta - P/mu, in ms, with P/mu
  /// the service time estimate_bottleneck reports; unset when it finds no
  /// compression cluster (e.g. large delta, Fig. 4).
  std::optional<double> compression_intercept_ms;
  /// Fraction of phase points within 4 ms (+-1 tick of the paper's
  /// 3.906 ms source clock) of the compression line (the paper's
  /// indicator that probes accumulate behind cross traffic).
  double compression_fraction = 0.0;
  /// Fraction of points within the same 4 ms of the diagonal y = x.
  double diagonal_fraction = 0.0;
};

/// Analyzes a trace directly.  Folds over the record pairs without
/// building the PhasePlot; the compression cluster is estimate_bottleneck's
/// (mu-hat is its mu_bps).  Throws std::invalid_argument when the trace
/// has no consecutive pair.
PhaseAnalysis analyze_phase_plot(const ProbeTrace& trace);

}  // namespace bolot::analysis

// One-call analysis report: everything the paper derives from a probe
// trace, rendered as text.  Used by the offline-analysis tool and the
// examples; each section is also available separately through the
// individual headers.
#pragma once

#include <optional>
#include <string>

#include "analysis/probe_trace.h"

namespace bolot::analysis {

struct ReportOptions {
  /// Bottleneck rate for eq.-6 inversion; unset = use the trace's own
  /// estimate_bottleneck() result when one exists.
  std::optional<double> bottleneck_bps;
  /// Render ASCII phase plot / workload histogram sections.
  bool include_plots = true;
  /// Fit AR / ARMA / constant+gamma models (slower on huge traces).
  bool include_models = true;
};

/// Renders the full report.  Works on any ProbeTrace (simulated, live, or
/// loaded from CSV); sections that need data the trace lacks (echo
/// timestamps, losses, a compression cluster) state so instead of
/// failing.  Throws std::invalid_argument only for an empty trace.
std::string full_report(const ProbeTrace& trace,
                        const ReportOptions& options = {});

}  // namespace bolot::analysis

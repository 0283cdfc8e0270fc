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
};

/// Renders the full report, ASCII phase plot, workload histogram and
/// AR / ARMA / constant+gamma models included.  Works on any ProbeTrace
/// (simulated, live, or loaded from CSV); sections that need data the
/// trace lacks (echo timestamps, losses, a compression cluster) state so
/// instead of failing.  Throws std::invalid_argument for an empty trace
/// and for a bottleneck_bps that is set but not finite and positive.
std::string full_report(const ProbeTrace& trace,
                        const ReportOptions& options = {});

}  // namespace bolot::analysis

// One-way delay decomposition.
//
// The paper measures only round trips because the source and echo hosts'
// clocks are unsynchronized ("their local clocks may not be synchronized
// and hence the timestamps ... would be difficult to interpret").  The
// probe format nevertheless carries the echo timestamp, and when both
// timestamps come from a common clock (our simulator, or a loopback run)
// the rtt decomposes exactly into outbound and return delays — which
// direction congests is directly visible.
//
// For unsynchronized clocks we provide the classic *relative* analysis:
// subtracting the minimum observed one-way value per direction removes
// the unknown clock offset (assuming at least one probe per direction
// crossed an empty path), leaving one-way queueing delay variations.
#pragma once

#include "analysis/probe_trace.h"
#include "analysis/stats.h"

namespace bolot::analysis {

struct OneWayAnalysis {
  Summary outbound;  // raw one-way values (offset included if any)
  Summary return_leg;
  /// Queueing components: value minus the per-direction minimum.  These
  /// are offset-free even with unsynchronized clocks.
  Summary outbound_queueing;
  Summary return_queueing;
  /// Share of total queueing delay accrued on the outbound leg, in
  /// [0, 1]; 0.5 means symmetric congestion.
  double outbound_queueing_share = 0.5;
};

/// Folds over the received records that carry an echo timestamp (two
/// passes, O(1) state).  Throws std::invalid_argument if none does.
OneWayAnalysis analyze_one_way(const ProbeTrace& trace);

}  // namespace bolot::analysis

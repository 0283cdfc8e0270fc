// Packet reordering and loss/delay correlation.
//
// Mukherjee's study (cited in section 1) reports that "packet losses and
// reorderings are positively correlated with various statistics of
// delay".  These routines quantify both effects on a ProbeTrace:
//
//   * reordering: probe n+1 overtakes probe n when it returns earlier
//     despite being sent delta later — detectable from send time + rtt
//     alone, no arrival log needed;
//   * loss/delay correlation: the point-biserial correlation between the
//     loss indicator of probe n and the rtt of the last received probe
//     before it (losses during congestion follow elevated rtts).
#pragma once

#include <cstdint>

#include "analysis/probe_trace.h"

namespace bolot::analysis {

struct ReorderStats {
  std::uint64_t comparable_pairs = 0;  // consecutive received pairs
  std::uint64_t overtakes = 0;         // r_{n+1} < r_n
  double overtake_fraction = 0.0;
};

/// Throws std::invalid_argument when no consecutive received pair exists.
ReorderStats reorder_stats(const ProbeTrace& trace);

/// Point-biserial correlation between "probe n was lost" and the rtt of
/// the nearest received probe before n.  Positive values mean losses
/// cluster in high-delay (congested) periods.  Throws when the trace has
/// no losses, no receptions, or constant rtts (correlation undefined).
/// pearson() over the (loss, preceding rtt) columns, folded over the
/// records by pearson_of() without storing them.
double loss_delay_correlation(const ProbeTrace& trace);

}  // namespace bolot::analysis

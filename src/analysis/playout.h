// Playout-buffer sizing from measured delay distributions.
//
// The paper's introduction motivates delay characterization with exactly
// this: "the shape of the delay distribution is crucial for the proper
// sizing of playback buffers" (Schulzrinne's NEVOT).  Given a probe trace
// standing in for an audio stream, these routines evaluate playout
// policies: a packet sent at s_n and arriving at r_n is playable iff
// r_n <= s_n + playout_delay; later arrivals count as *late losses*.
//
// Two policies:
//   * fixed: one playout delay for the whole session (sized offline from
//     a delay quantile);
//   * adaptive: the classic exponential-filter estimator (Ramjee et al.'s
//     algorithm 1, NEVOT-style): d-hat = a*d-hat + (1-a)*d,
//     v-hat = a*v-hat + (1-a)|d - d-hat|, playout = d-hat + beta*v-hat,
//     updated per talkspurt (here: per window of packets).
#pragma once

#include "analysis/probe_trace.h"

namespace bolot::analysis {

struct PlayoutResult {
  double late_fraction = 0.0;     // received but after the deadline
  double network_loss = 0.0;      // never arrived at all
  double total_gap_fraction = 0.0;  // late + lost: what the listener hears
  double mean_playout_delay_ms = 0.0;   // average added latency
};

/// Evaluates a fixed playout delay (ms after send time).
PlayoutResult evaluate_fixed_playout(const ProbeTrace& trace,
                                     double playout_delay_ms);

/// Smallest fixed playout delay whose total gap fraction is <= target.
/// Returns the delay in ms; throws std::invalid_argument if even the
/// maximum observed delay cannot meet the target (network loss alone
/// exceeds it).
double size_fixed_playout(const ProbeTrace& trace, double target_gap_fraction);

/// Evaluates the adaptive policy with filter gain a = 0.998; the playout
/// delay is recomputed every 50 packets (one pseudo talkspurt) as the
/// filtered delay plus 4 filtered deviations.  The first received delay
/// seeds the filter.  Throws std::invalid_argument for an empty trace.
PlayoutResult evaluate_adaptive_playout(const ProbeTrace& trace);

}  // namespace bolot::analysis

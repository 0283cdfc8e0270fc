// The measurement record produced by a NetDyn run (simulated or real):
// one entry per probe, in sequence order.  This is the input type for the
// whole analysis library.
//
// The paper's convention: rtt_n = 0 marks a lost probe.  We keep an
// explicit `received` flag and provide rtt vectors in that convention.
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.h"

namespace bolot::analysis {

struct ProbeRecord {
  std::uint64_t seq = 0;
  Duration send_time;   // s_n, on the sender's clock
  Duration rtt;         // r_n - s_n; zero when lost
  Duration echo_time;   // time at the echo host, when available
  bool received = false;
};

struct ProbeTrace {
  Duration delta;                    // interval between probe sends
  std::int64_t probe_wire_bytes = 0; // P, as seen by the bottleneck
  /// Resolution of the source host's clock (zero = exact).  Timestamps,
  /// and therefore rtts, are quantized to multiples of this tick; the
  /// analysis routines use it to size their clustering windows.
  Duration clock_tick;
  std::vector<ProbeRecord> records;  // indexed by seq (dense)

  std::size_t size() const { return records.size(); }

  std::size_t received_count() const;
  std::size_t lost_count() const { return size() - received_count(); }

  /// rtt_n in milliseconds with the paper's 0-for-lost convention.
  std::vector<double> rtt_ms_with_losses() const;

  /// rtt_n in milliseconds, received probes only (order preserved).
  std::vector<double> rtt_ms_received() const;

  /// 0/1 loss indicator sequence (1 = lost).
  std::vector<std::uint8_t> loss_indicators() const;
};

/// Throws std::invalid_argument unless `trace.records` is in strictly
/// increasing seq order (no duplicates, no reordering).  Every estimator
/// built on consecutive-pair semantics (loss_stats, workload_samples_ms,
/// analyze_workload, estimate_bottleneck, build_phase_plot,
/// analyze_phase_plot, reorder_stats, loss_delay_correlation) calls this
/// at entry: a shuffled or duplicate-seq trace silently fabricates pairs
/// that never happened on the wire, which is worse than failing loudly.
/// Order-insensitive per-record estimators (analyze_one_way) deliberately
/// skip it; the per-estimator contract is documented in
/// docs/ESTIMATORS.md.  `caller` names the estimator in the exception
/// message.
void validate_probe_order(const ProbeTrace& trace, const char* caller);

/// Calls visit(rtt_n, rtt_{n+1}), both in ms, for every pair of
/// consecutively received probes, in trace order; a lost probe breaks the
/// pair.  The one pair walk behind the phase plot and the eq.-6 samples,
/// so an estimator can fold over the pairs without storing them.
template <typename Visit>
void for_each_received_pair(const ProbeTrace& trace, Visit&& visit) {
  const auto& records = trace.records;
  for (std::size_t n = 0; n + 1 < records.size(); ++n) {
    if (!records[n].received || !records[n + 1].received) continue;
    visit(records[n].rtt.millis(), records[n + 1].rtt.millis());
  }
}

}  // namespace bolot::analysis

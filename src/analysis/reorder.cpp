#include "analysis/reorder.h"

#include <stdexcept>

#include "analysis/stats.h"

namespace bolot::analysis {

ReorderStats reorder_stats(const ProbeTrace& trace) {
  validate_probe_order(trace, "reorder_stats");
  ReorderStats stats;
  const auto& records = trace.records;
  for (std::size_t n = 0; n + 1 < records.size(); ++n) {
    if (!records[n].received || !records[n + 1].received) continue;
    ++stats.comparable_pairs;
    const Duration r_n = records[n].send_time + records[n].rtt;
    const Duration r_next = records[n + 1].send_time + records[n + 1].rtt;
    if (r_next < r_n) ++stats.overtakes;
  }
  if (stats.comparable_pairs == 0) {
    throw std::invalid_argument("reorder_stats: no consecutive pairs");
  }
  stats.overtake_fraction = static_cast<double>(stats.overtakes) /
                            static_cast<double>(stats.comparable_pairs);
  return stats;
}

double loss_delay_correlation(const ProbeTrace& trace) {
  validate_probe_order(trace, "loss_delay_correlation");
  // Pair each probe (from the second onward) with the rtt of the nearest
  // received probe before it.  pearson_of() rejects the degenerate cases
  // (no pairs, all-lost, no-loss, constant rtt) by throwing.
  return pearson_of([&trace](auto&& visit) {
    double last_rtt_ms = -1.0;
    for (const auto& record : trace.records) {
      if (last_rtt_ms >= 0.0) visit(record.received ? 0.0 : 1.0, last_rtt_ms);
      if (record.received) last_rtt_ms = record.rtt.millis();
    }
  });
}

}  // namespace bolot::analysis

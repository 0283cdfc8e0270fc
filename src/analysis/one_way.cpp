#include "analysis/one_way.h"

#include <stdexcept>

namespace bolot::analysis {

namespace {

/// Calls visit(outbound_ms, return_ms) for every received record that
/// carries an echo timestamp, in trace order.
template <typename Visit>
void for_each_one_way_sample(const ProbeTrace& trace, Visit&& visit) {
  for (const auto& record : trace.records) {
    if (!record.received) continue;
    if (record.echo_time <= record.send_time) continue;  // no echo stamp
    visit((record.echo_time - record.send_time).millis(),
          (record.send_time + record.rtt - record.echo_time).millis());
  }
}

}  // namespace

OneWayAnalysis analyze_one_way(const ProbeTrace& trace) {
  StreamingSummary outbound, back;
  for_each_one_way_sample(trace, [&](double out_ms, double back_ms) {
    outbound.push(out_ms);
    back.push(back_ms);
  });
  if (outbound.count() == 0) {
    throw std::invalid_argument(
        "analyze_one_way: trace carries no echo timestamps");
  }

  OneWayAnalysis analysis;
  analysis.outbound = outbound.summary();
  analysis.return_leg = back.summary();

  // Offset-free queueing components: subtract the per-direction minimum.
  StreamingSummary outbound_q, back_q;
  for_each_one_way_sample(trace, [&](double out_ms, double back_ms) {
    outbound_q.push(out_ms - analysis.outbound.min);
    back_q.push(back_ms - analysis.return_leg.min);
  });
  analysis.outbound_queueing = outbound_q.summary();
  analysis.return_queueing = back_q.summary();

  const double total =
      analysis.outbound_queueing.mean + analysis.return_queueing.mean;
  analysis.outbound_queueing_share =
      total > 0.0 ? analysis.outbound_queueing.mean / total : 0.5;
  return analysis;
}

}  // namespace bolot::analysis

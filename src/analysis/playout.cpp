#include "analysis/playout.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace bolot::analysis {

namespace {

/// Adaptive playout's exponential filter gain, its safety factor on the
/// filtered deviation, and its packets per (pseudo) talkspurt.
constexpr double kAlpha = 0.998;
constexpr double kBeta = 4.0;
constexpr std::size_t kWindow = 50;

}  // namespace

PlayoutResult evaluate_fixed_playout(const ProbeTrace& trace,
                                     double playout_delay_ms) {
  if (trace.records.empty()) {
    throw std::invalid_argument("evaluate_fixed_playout: empty trace");
  }
  PlayoutResult result;
  std::size_t late = 0;
  std::size_t lost = 0;
  for (const auto& record : trace.records) {
    if (!record.received) {
      ++lost;
      continue;
    }
    if (record.rtt.millis() > playout_delay_ms) ++late;
  }
  const double n = static_cast<double>(trace.records.size());
  result.late_fraction = static_cast<double>(late) / n;
  result.network_loss = static_cast<double>(lost) / n;
  result.total_gap_fraction = result.late_fraction + result.network_loss;
  result.mean_playout_delay_ms = playout_delay_ms;
  return result;
}

double size_fixed_playout(const ProbeTrace& trace,
                          double target_gap_fraction) {
  // A NaN target fails every comparison.
  if (!(target_gap_fraction >= 0.0 && target_gap_fraction < 1.0)) {
    throw std::invalid_argument(
        "size_fixed_playout: target_gap_fraction not in [0, 1)");
  }
  std::vector<double> delays = trace.rtt_ms_received();
  if (delays.empty()) {
    throw std::invalid_argument("size_fixed_playout: nothing received");
  }
  const double n = static_cast<double>(trace.records.size());
  const double network_loss =
      static_cast<double>(trace.lost_count()) / n;
  if (network_loss > target_gap_fraction) {
    throw std::invalid_argument(
        "size_fixed_playout: network loss alone exceeds the target");
  }
  // Allowed late fraction among all packets; find the smallest delay
  // admitting it (a quantile of the received-delay distribution).
  const double allowed_late = target_gap_fraction - network_loss;
  std::sort(delays.begin(), delays.end());
  const auto allowed_count =
      static_cast<std::size_t>(allowed_late * n);  // floor: conservative
  const std::size_t keep = delays.size() - std::min(allowed_count, delays.size());
  if (keep == 0) return delays.front();
  return delays[keep - 1];  // all received delays <= this are on time
}

PlayoutResult evaluate_adaptive_playout(const ProbeTrace& trace) {
  if (trace.records.empty()) {
    throw std::invalid_argument("evaluate_adaptive_playout: empty trace");
  }
  // The first received delay seeds the filter; until then the playout
  // delay is 0.
  double d_hat = 0.0;
  double v_hat = 0.0;
  bool initialized = false;
  double playout_delay = 0.0;

  std::size_t late = 0;
  std::size_t lost = 0;
  double delay_sum = 0.0;
  std::size_t delay_count = 0;
  for (std::size_t n = 0; n < trace.records.size(); ++n) {
    // Window boundary: adopt the current estimate for the next window.
    if (n % kWindow == 0) {
      playout_delay = initialized ? d_hat + kBeta * v_hat : 0.0;
    }
    const auto& record = trace.records[n];
    if (!record.received) {
      ++lost;
      continue;
    }
    const double delay_ms = record.rtt.millis();
    if (!initialized) {
      d_hat = delay_ms;
      v_hat = delay_ms / 4.0;
      initialized = true;
      if (playout_delay <= 0.0) playout_delay = d_hat + kBeta * v_hat;
    } else {
      d_hat = kAlpha * d_hat + (1.0 - kAlpha) * delay_ms;
      v_hat = kAlpha * v_hat + (1.0 - kAlpha) * std::abs(delay_ms - d_hat);
    }
    if (delay_ms > playout_delay) ++late;
    delay_sum += playout_delay;
    ++delay_count;
  }

  PlayoutResult result;
  const double total = static_cast<double>(trace.records.size());
  result.late_fraction = static_cast<double>(late) / total;
  result.network_loss = static_cast<double>(lost) / total;
  result.total_gap_fraction = result.late_fraction + result.network_loss;
  result.mean_playout_delay_ms =
      delay_count > 0 ? delay_sum / static_cast<double>(delay_count) : 0.0;
  return result;
}

}  // namespace bolot::analysis

#include "analysis/streaming.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace bolot::analysis {

namespace {

/// The packet-pair cluster cut, as a multiple of the median spacing: at
/// least 1, so the cluster always holds the median.
constexpr double kOutlierFactor = 1.5;

}  // namespace

// ---------------------------------------------------------------------------
// StreamingLossState
// ---------------------------------------------------------------------------

StreamingLossState::StreamingLossState() {
  closed_bursts_.reserve(64);
}

void StreamingLossState::push_lost(bool lost) {
  if (have_prev_) {
    // A pair (n, n+1) counts once sample n has a successor.
    if (prev_lost_) {
      ++lost_pairs_;
      if (!lost) ++lost_to_ok_;
    } else {
      ++ok_pairs_;
      if (lost) ++ok_to_lost_;
    }
  }
  ++probes_;
  if (lost) {
    ++losses_;
    ++run_;
  } else if (run_ > 0) {
    if (run_ > closed_bursts_.size()) closed_bursts_.resize(run_, 0);
    ++closed_bursts_[run_ - 1];
    run_ = 0;
  }
  have_prev_ = true;
  prev_lost_ = lost;
}

double StreamingLossState::loss_fraction() const {
  return probes_ > 0
             ? static_cast<double>(losses_) / static_cast<double>(probes_)
             : 0.0;
}

LossStats StreamingLossState::stats() const {
  if (probes_ == 0) {
    throw std::invalid_argument("StreamingLossState::stats: empty input");
  }
  LossStats s;
  s.probes = probes_;
  s.losses = losses_;
  s.burst_length_counts = closed_bursts_;
  if (run_ > 0) {
    // The snapshot closes the still-open trailing run.
    if (run_ > s.burst_length_counts.size()) {
      s.burst_length_counts.resize(run_, 0);
    }
    ++s.burst_length_counts[run_ - 1];
  }
  s.ulp = static_cast<double>(s.losses) / static_cast<double>(s.probes);
  s.clp = lost_pairs_ > 0 ? static_cast<double>(lost_pairs_ - lost_to_ok_) /
                                static_cast<double>(lost_pairs_)
                          : 0.0;
  s.plg_from_clp = s.clp < 1.0 ? 1.0 / (1.0 - s.clp)
                               : std::numeric_limits<double>::infinity();
  std::size_t burst_count = 0;
  std::size_t burst_total = 0;
  for (std::size_t k = 0; k < s.burst_length_counts.size(); ++k) {
    burst_count += s.burst_length_counts[k];
    burst_total += s.burst_length_counts[k] * (k + 1);
  }
  s.mean_burst_length = burst_count > 0
                            ? static_cast<double>(burst_total) /
                                  static_cast<double>(burst_count)
                            : 0.0;
  return s;
}

GilbertFit StreamingLossState::gilbert() const {
  if (probes_ < 2) {
    throw std::invalid_argument(
        "StreamingLossState::gilbert: need at least two samples");
  }
  GilbertFit fit;
  if (ok_pairs_ == 0) {
    // All-lost: q was never observed.  Clamp so stationary_loss() reports
    // the empirical rate 1.0 instead of a degenerate 0.0.
    fit.p = 1.0;
    fit.q = 0.0;
    fit.degenerate = true;
    return fit;
  }
  if (lost_pairs_ == 0) {
    // All-ok (as far as transitions go): p is measured, q never observed.
    fit.p =
        static_cast<double>(ok_to_lost_) / static_cast<double>(ok_pairs_);
    fit.q = 1.0;
    fit.degenerate = true;
    return fit;
  }
  fit.p = static_cast<double>(ok_to_lost_) / static_cast<double>(ok_pairs_);
  fit.q =
      static_cast<double>(lost_to_ok_) / static_cast<double>(lost_pairs_);
  return fit;
}

// ---------------------------------------------------------------------------
// StreamingPacketPair
// ---------------------------------------------------------------------------

StreamingPacketPair::StreamingPacketPair(ByteSize probe_wire,
                                         std::size_t max_pairs)
    : probe_bits_(static_cast<double>(probe_wire.bit_count())) {
  spacings_ms_.reserve(max_pairs);
}

void StreamingPacketPair::push(std::uint64_t seq, Duration send_time,
                               Duration return_time) {
  if (have_last_ && seq <= last_seq_) {
    ++rejected_;
    return;
  }
  if (have_last_ && seq == last_seq_ + 1 &&
      send_time - last_send_ <= kPairSendGap) {
    const double spacing = (return_time - last_return_).millis();
    if (spacing > 0.0) {
      if (spacings_ms_.size() == spacings_ms_.capacity()) {
        throw std::length_error(
            "StreamingPacketPair::push: more pairs than max_pairs");
      }
      spacings_ms_.push_back(spacing);
    }
  }
  have_last_ = true;
  last_seq_ = seq;
  last_send_ = send_time;
  last_return_ = return_time;
}

BottleneckEstimate StreamingPacketPair::estimate() {
  if (spacings_ms_.empty()) {
    throw std::invalid_argument(
        "StreamingPacketPair::estimate: no back-to-back pairs received");
  }
  std::sort(spacings_ms_.begin(), spacings_ms_.end());
  const double med = spacings_ms_[spacings_ms_.size() / 2];
  // Centroid of the non-interleaved cluster around the median, summed in
  // ascending order.
  double sum = 0.0;
  std::size_t count = 0;
  for (const double s : spacings_ms_) {
    if (s <= med * kOutlierFactor) {
      sum += s;
      ++count;
    }
  }
  BottleneckEstimate estimate;
  estimate.service_time_ms = sum / static_cast<double>(count);
  estimate.mu_bps = probe_bits_ / (estimate.service_time_ms * 1e-3);
  estimate.cluster_samples = count;
  estimate.cluster_fraction =
      static_cast<double>(count) / static_cast<double>(spacings_ms_.size());
  return estimate;
}

}  // namespace bolot::analysis

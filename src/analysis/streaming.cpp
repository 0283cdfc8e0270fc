#include "analysis/streaming.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace bolot::analysis {

namespace {

/// The packet-pair cluster cut, as a multiple of the median spacing: at
/// least 1, so the cluster always holds the median.
constexpr double kOutlierFactor = 1.5;
/// Reference cross-traffic packet for labeling workload peaks (the paper
/// identifies ~488-byte FTP packets): 512 bytes.
constexpr double kReferencePacketBits = 512 * 8;
/// A workload peak holds at least this share of the g_n samples.
constexpr double kMinPeakMass = 0.01;

}  // namespace

// ---------------------------------------------------------------------------
// StreamingLossState
// ---------------------------------------------------------------------------

StreamingLossState::StreamingLossState(std::size_t burst_capacity) {
  closed_bursts_.reserve(burst_capacity);
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

// ---------------------------------------------------------------------------
// StreamingLindley
// ---------------------------------------------------------------------------

namespace {

/// The histogram's bin count, after the checks the two fields it is
/// sized from need: a zero bin would turn the count into +inf, whose
/// conversion to std::size_t is undefined.
std::size_t workload_bins(const WorkloadOptions& options) {
  if (!(std::isfinite(options.bin_ms) && options.bin_ms > 0.0)) {
    throw std::invalid_argument(
        "StreamingLindley: bin_ms must be finite and positive");
  }
  if (!std::isfinite(options.max_ms)) {
    throw std::invalid_argument("StreamingLindley: max_ms must be finite");
  }
  return static_cast<std::size_t>(
      std::max(8.0, std::ceil(options.max_ms / options.bin_ms)));
}

}  // namespace

StreamingLindley::StreamingLindley(Duration delta, ByteSize probe_wire,
                                   const WorkloadOptions& options)
    : histogram_(0.0, options.max_ms, workload_bins(options)),
      delta_ms_(delta.millis()),
      mu_bits_per_ms_(options.bottleneck_bps * 1e-3),
      probe_bits_(static_cast<double>(probe_wire.bit_count())) {
  if (options.bottleneck_bps <= 0.0) {
    throw std::invalid_argument("StreamingLindley: mu must be positive");
  }
}

void StreamingLindley::push_received(Duration rtt) {
  const double rtt_ms = rtt.millis();
  if (have_prev_) {
    const double g = rtt_ms - prev_rtt_ms_ + delta_ms_;
    histogram_.add(g);
    ++samples_;
    // Eq. (6): the busy-period workload b_n = mu * g_n - P, averaged over
    // the samples where the busy-server assumption holds (b_n > 0).
    const double b = mu_bits_per_ms_ * g - probe_bits_;
    if (b > 0.0) {
      busy_bits_sum_ += b;
      ++busy_;
    }
  }
  prev_rtt_ms_ = rtt_ms;
  have_prev_ = true;
}

double StreamingLindley::mean_workload_bits() const {
  return busy_ > 0 ? busy_bits_sum_ / static_cast<double>(busy_) : 0.0;
}

double StreamingLindley::busy_sample_fraction() const {
  return samples_ > 0
             ? static_cast<double>(busy_) / static_cast<double>(samples_)
             : 0.0;
}

WorkloadAnalysis StreamingLindley::analysis() const {
  if (samples_ == 0) {
    throw std::invalid_argument(
        "StreamingLindley::analysis: no consecutive pairs");
  }
  WorkloadAnalysis result{histogram_, {}, 0.0, 0.0};
  const double service_ms = probe_bits_ / mu_bits_per_ms_;  // P/mu in ms
  // A peak is the compression (P/mu) or idle (delta) peak only if its
  // *bin* covers that value, i.e. the center lies within half a bin of
  // it; a full bin's tolerance would swallow the adjacent-bin peaks too.
  const double half_bin = 0.5 * result.histogram.bin_width();
  for (const HistogramPeak& peak :
       result.histogram.find_peaks(kMinPeakMass, 2)) {
    WorkloadPeak wp;
    wp.position_ms = peak.center;
    wp.mass = peak.mass;
    wp.workload_bits =
        std::max(0.0, mu_bits_per_ms_ * peak.center - probe_bits_);
    const bool is_compression =
        std::abs(peak.center - service_ms) <= half_bin;
    const bool is_idle = std::abs(peak.center - delta_ms_) <= half_bin;
    // Every other peak is labeled as k reference packets.
    if (!is_compression && !is_idle && wp.workload_bits > 0.0) {
      wp.cross_packets = wp.workload_bits / kReferencePacketBits;
    }
    result.peaks.push_back(wp);
  }
  result.mean_workload_bits = mean_workload_bits();
  result.busy_sample_fraction = busy_sample_fraction();
  return result;
}

}  // namespace bolot::analysis

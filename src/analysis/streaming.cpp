#include "analysis/streaming.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace bolot::analysis {

namespace detail {

KeyStatMap::KeyStatMap(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("KeyStatMap: capacity == 0");
  }
  std::size_t slots = 1;
  while (slots < capacity * 2) slots <<= 1;
  slots_.resize(slots);
  mask_ = slots - 1;
}

KeyStatMap::Entry* KeyStatMap::slot_for(std::int64_t key) {
  // Fibonacci hashing; the table is never more than half full (capacity_
  // distinct keys in >= 2 * capacity_ slots), so the probe terminates.
  std::size_t idx = static_cast<std::size_t>(
                        static_cast<std::uint64_t>(key) *
                        0x9E3779B97F4A7C15ull) &
                    mask_;
  while (slots_[idx].count != 0 && slots_[idx].key != key) {
    idx = (idx + 1) & mask_;
  }
  return &slots_[idx];
}

void KeyStatMap::add(std::int64_t key, double value) {
  Entry* e = slot_for(key);
  if (e->count == 0) {
    if (occupied_ == capacity_) {
      throw std::length_error(
          "KeyStatMap: distinct-key capacity exceeded (raise the owning "
          "estimator's capacity knob)");
    }
    e->key = key;
    ++occupied_;
  }
  ++e->count;
  e->sum += value;
}

void KeyStatMap::sorted_entries(std::vector<Entry>& out) const {
  out.clear();
  for (const Entry& e : slots_) {
    if (e.count != 0) out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
}

std::vector<KeyStatMap::Entry> sorted_key_counts(
    std::vector<std::int64_t> keys) {
  std::sort(keys.begin(), keys.end());
  std::vector<KeyStatMap::Entry> out;
  for (const std::int64_t key : keys) {
    if (out.empty() || out.back().key != key) out.push_back({key, 0, 0.0});
    ++out.back().count;
  }
  return out;
}

TickPair heaviest_adjacent_ticks(std::span<const KeyStatMap::Entry> sorted,
                                 std::int64_t tick) {
  TickPair best;
  std::size_t next = 0;  // first entry with key >= e.key + tick
  for (const KeyStatMap::Entry& e : sorted) {
    while (next < sorted.size() && sorted[next].key < e.key + tick) ++next;
    std::uint64_t pair = e.count;
    if (next < sorted.size() && sorted[next].key == e.key + tick) {
      pair += sorted[next].count;
    }
    if (pair > best.count) best = {e.key, pair};
  }
  return best;
}

}  // namespace detail

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
// StreamingLindley
// ---------------------------------------------------------------------------

namespace {

/// The typed config in analyze_workload()'s terms; the checks are the
/// one-pass estimator's own (the batch can auto-size the edge).
WorkloadOptions workload_options(const StreamingLindleyConfig& config) {
  if (!(config.max > Duration::zero())) {
    throw std::invalid_argument(
        "StreamingLindley: config.max must be positive (one-pass "
        "estimation cannot auto-size the histogram edge)");
  }
  if (!(config.bin > Duration::zero())) {
    throw std::invalid_argument("StreamingLindley: config.bin must be "
                                "positive");
  }
  WorkloadOptions options;
  options.bottleneck_bps = config.bottleneck.bps();
  options.bin_ms = config.bin.millis();
  options.max_ms = config.max.millis();
  options.min_peak_mass = config.min_peak_mass;
  options.reference_packet_bytes = config.reference_packet.count();
  return options;
}

}  // namespace

StreamingLindley::StreamingLindley(const StreamingLindleyConfig& config)
    : StreamingLindley(config.delta, config.probe_wire,
                       workload_options(config)) {}

StreamingLindley::StreamingLindley(Duration delta, ByteSize probe_wire,
                                   const WorkloadOptions& options)
    : histogram_(0.0, options.max_ms,
                 static_cast<std::size_t>(std::max(
                     8.0, std::ceil(options.max_ms / options.bin_ms)))),
      delta_ms_(delta.millis()),
      mu_bits_per_ms_(options.bottleneck_bps * 1e-3),
      probe_bits_(static_cast<double>(probe_wire.bit_count())),
      reference_bits_(
          static_cast<double>(options.reference_packet_bytes * 8)),
      min_peak_mass_(options.min_peak_mass) {
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
       result.histogram.find_peaks(min_peak_mass_, 2)) {
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
      wp.cross_packets = wp.workload_bits / reference_bits_;
    }
    result.peaks.push_back(wp);
  }
  result.mean_workload_bits = mean_workload_bits();
  result.busy_sample_fraction = busy_sample_fraction();
  return result;
}

// ---------------------------------------------------------------------------
// StreamingPhaseFit
// ---------------------------------------------------------------------------

StreamingPhaseFit::StreamingPhaseFit(const StreamingPhaseFitConfig& config)
    : delta_ms_(config.delta.millis()),
      tick_ms_(config.clock_tick.millis()),
      probe_bits_(static_cast<double>(config.probe_wire.bit_count())),
      options_(config.options),
      d_lo_(config.options.min_intercept_fraction * config.delta.millis()),
      min_rtt_ms_(std::numeric_limits<double>::infinity()) {
  if (!(d_lo_ < delta_ms_)) {
    throw std::invalid_argument(
        "StreamingPhaseFit: min_intercept_fraction must be < 1 with a "
        "positive delta");
  }
  if (tick_ms_ > 0.0) {
    cluster_map_.emplace(config.cluster_capacity);
    band_map_.emplace(config.band_capacity);
    scratch_.reserve(std::max(config.cluster_capacity,
                              config.band_capacity));
  } else {
    // Mirror the batch candidate histogram's bin layout exactly.
    cand_bins_ = std::max<std::size_t>(
        8, static_cast<std::size_t>((delta_ms_ - d_lo_) /
                                    options_.histogram_bin_ms));
    cand_width_ = (delta_ms_ - d_lo_) / static_cast<double>(cand_bins_);
    cand_count_.assign(cand_bins_, 0);
    cand_lower_count_.assign(cand_bins_, 0);
    cand_lower_sum_.assign(cand_bins_, 0.0);
    cand_upper_sum_.assign(cand_bins_, 0.0);
    last_center_ =
        d_lo_ + (static_cast<double>(cand_bins_ - 1) + 0.5) * cand_width_;
    if (config.band_bins_per_tolerance == 0 ||
        !(options_.tolerance_ms > 0.0)) {
      throw std::invalid_argument(
          "StreamingPhaseFit: band histogram needs a positive tolerance "
          "and bins-per-tolerance");
    }
    band_lo_ = d_lo_ - 2.0 * options_.tolerance_ms;
    band_width_ = options_.tolerance_ms /
                  static_cast<double>(config.band_bins_per_tolerance);
    const double band_hi = delta_ms_ + 2.0 * options_.tolerance_ms;
    const auto band_bins = static_cast<std::size_t>(
        std::ceil((band_hi - band_lo_) / band_width_));
    band_count_.assign(band_bins, 0);
    band_sum_.assign(band_bins, 0.0);
  }
}

void StreamingPhaseFit::push(Duration rtt) {
  const bool received = !(rtt == Duration::zero());
  if (received) {
    const double rtt_ms = rtt.millis();
    if (have_prev_) push_pair(prev_rtt_ms_, rtt_ms);
    prev_rtt_ms_ = rtt_ms;
  }
  have_prev_ = received;
}

void StreamingPhaseFit::push_pair(double prev_ms, double cur_ms) {
  ++pairs_;
  min_rtt_ms_ = std::min(min_rtt_ms_, std::min(prev_ms, cur_ms));
  const double d = prev_ms - cur_ms;
  if (std::abs(d) <= options_.tolerance_ms) ++on_diagonal_;

  if (tick_ms_ > 0.0) {
    band_map_->add(std::llround(d * 1e3), d);
  } else if (d >= band_lo_) {
    const auto bin = static_cast<std::size_t>((d - band_lo_) / band_width_);
    if (bin < band_count_.size()) {
      ++band_count_[bin];
      band_sum_[bin] += d;
    }
  }

  if (d > d_lo_) {
    ++candidates_;
    if (tick_ms_ > 0.0) {
      cluster_map_->add(std::llround(d * 1e3), d);
    } else if (d >= delta_ms_) {
      // Overflowed candidates the batch centroid window still reaches
      // when the modal bin turns out to be the last one (the comparison
      // is the batch's |d - center| <= bin_width verbatim).
      if (d - last_center_ <= cand_width_) {
        ++ovf_in_count_;
        ovf_in_sum_ += d;
      }
    } else {
      // Histogram::add's bin formula, verbatim.
      auto bin = static_cast<std::size_t>(
          (d - d_lo_) / (delta_ms_ - d_lo_) *
          static_cast<double>(cand_bins_));
      if (bin >= cand_bins_) bin = cand_bins_ - 1;
      const double center =
          d_lo_ + (static_cast<double>(bin) + 0.5) * cand_width_;
      ++cand_count_[bin];
      if (d < center) {
        ++cand_lower_count_[bin];
        cand_lower_sum_[bin] += d;
      } else {
        cand_upper_sum_[bin] += d;
      }
    }
  }
}

std::optional<double> StreamingPhaseFit::quantized_intercept() const {
  cluster_map_->sorted_entries(scratch_);
  const detail::TickPair best = detail::heaviest_adjacent_ticks(
      scratch_, static_cast<std::int64_t>(std::llround(tick_ms_ * 1e3)));
  if (static_cast<double>(best.count) <
      options_.min_cluster_mass * static_cast<double>(pairs_)) {
    return std::nullopt;
  }
  const double lo = static_cast<double>(best.key) * 1e-3 - 1e-3;
  const double hi = lo + tick_ms_ + 2e-3;
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& e : scratch_) {
    // Every sample in an entry is the same quantized descent (equal to
    // machine precision), and the window edges sit a full microsecond off
    // the grid, so the per-entry representative decides exactly as the
    // batch's per-sample comparison does.
    const double rep = e.sum / static_cast<double>(e.count);
    if (rep > lo && rep <= hi) {
      sum += e.sum;
      count += e.count;
    }
  }
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

std::optional<double> StreamingPhaseFit::binned_intercept() const {
  double best_mass = 0.0;
  std::optional<std::size_t> modal;
  for (std::size_t bin = 0; bin < cand_bins_; ++bin) {
    const double mass = static_cast<double>(cand_count_[bin]) /
                        static_cast<double>(pairs_);
    if (mass > best_mass && mass >= options_.min_cluster_mass) {
      best_mass = mass;
      modal = bin;
    }
  }
  if (!modal) return std::nullopt;
  const std::size_t i = *modal;
  // The batch centroid window |d - center_i| <= bin_width spans the upper
  // half of bin i-1, all of bin i, and the lower half of bin i+1 (the
  // half-split at each bin center reproduces it without the samples).
  double sum = cand_lower_sum_[i] + cand_upper_sum_[i];
  std::uint64_t count = cand_count_[i];
  if (i > 0) {
    sum += cand_upper_sum_[i - 1];
    count += cand_count_[i - 1] - cand_lower_count_[i - 1];
  }
  if (i + 1 < cand_bins_) {
    sum += cand_lower_sum_[i + 1];
    count += cand_lower_count_[i + 1];
  } else {
    sum += ovf_in_sum_;
    count += ovf_in_count_;
  }
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

double StreamingPhaseFit::band_fraction(double intercept) const {
  std::uint64_t on_line = 0;
  if (tick_ms_ > 0.0) {
    band_map_->sorted_entries(scratch_);
    for (const auto& e : scratch_) {
      const double rep = e.sum / static_cast<double>(e.count);
      if (std::abs(rep - intercept) <= options_.tolerance_ms) {
        on_line += e.count;
      }
    }
  } else {
    for (std::size_t bin = 0; bin < band_count_.size(); ++bin) {
      if (band_count_[bin] == 0) continue;
      const double rep =
          band_sum_[bin] / static_cast<double>(band_count_[bin]);
      if (std::abs(rep - intercept) <= options_.tolerance_ms) {
        on_line += band_count_[bin];
      }
    }
  }
  return static_cast<double>(on_line) / static_cast<double>(pairs_);
}

PhaseAnalysis StreamingPhaseFit::estimate() const {
  if (pairs_ == 0) {
    throw std::invalid_argument(
        "StreamingPhaseFit::estimate: no consecutive pairs");
  }
  PhaseAnalysis result;
  result.fixed_delay_ms = min_rtt_ms_;

  std::optional<double> intercept;
  if (candidates_ > 0) {
    intercept =
        tick_ms_ > 0.0 ? quantized_intercept() : binned_intercept();
  }
  if (intercept) {
    result.compression_intercept_ms = *intercept;
    const double service_ms = delta_ms_ - *intercept;
    if (service_ms > 0.0) {
      result.bottleneck_bps = probe_bits_ / (service_ms * 1e-3);
    }
    result.compression_fraction = band_fraction(*intercept);
  }
  result.diagonal_fraction = static_cast<double>(on_diagonal_) /
                             static_cast<double>(pairs_);
  return result;
}

// ---------------------------------------------------------------------------
// StreamingAutocorr
// ---------------------------------------------------------------------------

StreamingAutocorr::StreamingAutocorr(std::size_t max_lag)
    : max_lag_(max_lag),
      ring_(max_lag + 1, 0.0),
      head_(max_lag, 0.0),
      cross_(max_lag + 1, 0.0) {}

void StreamingAutocorr::push(double x) {
  const std::size_t i = summary_.count();
  if (i == 0) offset_ = x;
  summary_.push(x);

  const double z = x - offset_;
  const std::size_t cap = ring_.size();
  ring_[i % cap] = z;
  const std::size_t lags = std::min(max_lag_, i);
  for (std::size_t lag = 0; lag <= lags; ++lag) {
    cross_[lag] += z * ring_[(i - lag) % cap];
  }
  if (i < max_lag_) head_[i] = z;
  shifted_sum_ += z;
}

std::vector<double> StreamingAutocorr::acf() const {
  const std::size_t n = summary_.count();
  if (n == 0) {
    throw std::invalid_argument("StreamingAutocorr::acf: empty sample");
  }
  // The batch divides by variance * (n - 1) after the m2 / (n - 1)
  // round-trip; reproduce that exact arithmetic path.
  const double denom = summary_.variance() * static_cast<double>(n - 1);
  if (denom <= 0.0) {
    throw std::invalid_argument("StreamingAutocorr::acf: constant sample");
  }
  const std::size_t lags = std::min(max_lag_, n - 1);
  const double mz = summary_.mean() - offset_;
  const std::size_t cap = ring_.size();
  std::vector<double> acf(lags + 1, 0.0);
  double tail = 0.0;  // sum of the last `lag` shifted values
  double head = 0.0;  // sum of the first `lag` shifted values
  for (std::size_t lag = 0; lag <= lags; ++lag) {
    const double num = cross_[lag] - mz * (shifted_sum_ - head) -
                       mz * (shifted_sum_ - tail) +
                       static_cast<double>(n - lag) * mz * mz;
    acf[lag] = num / denom;
    if (lag < lags) {
      tail += ring_[(n - 1 - lag) % cap];
      head += head_[lag];
    }
  }
  return acf;
}

}  // namespace bolot::analysis

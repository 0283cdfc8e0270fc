// One-pass, bounded-memory streaming forms of the core estimators.
//
// An N x N tomography mesh analyzes 10^4+ probe streams online in one
// process, so every estimator here is push-driven and allocates nothing on
// the push path after construction.  Two of them are the *only*
// implementation of their recurrence: the batch entry points are folds
// over them.
//
//   StreamingLossState  -- ulp / clp / plg and the Gilbert refit.
//                          loss_stats() and fit_gilbert() push every
//                          indicator into one and return its snapshot.
//   StreamingLindley    -- the eq. (6) workload inversion: g_n histogram,
//                          busy-sample accumulator, peak labels.
//                          analyze_workload() validates, resolves the
//                          histogram edge (auto-sizing needs a pre-pass
//                          over g_n that one-pass estimation cannot do)
//                          and pushes every record into one.
//   StreamingPhaseFit   -- the phase-plot mu / D regression.  Quantized
//                          clocks (clock_tick > 0, an integer number of
//                          microseconds) reproduce analyze_phase_plot() to
//                          rounding (the centroids sum per descent key,
//                          the batch in trace order); exact clocks
//                          reproduce the estimates (D-hat, intercept,
//                          mu-hat, diagonal fraction) up to measure-zero
//                          bin-boundary ties, and approximate
//                          compression_fraction to one auxiliary bin of
//                          boundary mass (see fractions_exact()).
//   StreamingAutocorr   -- fixed-lag autocorrelation over the shared
//                          StreamingSummary (stats.h), the Welford
//                          recurrence summarize() also folds over.  acf()
//                          matches autocorrelation() to ~1e-12 relative
//                          (the centered products are expanded
//                          algebraically around the first sample;
//                          MODEL_NOTES section 17 gives the cancellation
//                          argument).
//
// The phase fit and the acf keep their batch forms (analyze_phase_plot,
// autocorrelation) as the references tests/analysis/streaming_test.cpp
// compares against, because neither streaming form is bit-identical.  The
// per-estimator contract is documented in docs/ESTIMATORS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "analysis/histogram.h"
#include "analysis/lindley.h"
#include "analysis/loss.h"
#include "analysis/phase_plot.h"
#include "analysis/stats.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::analysis {

namespace detail {

/// Fixed-capacity open-addressing map from an int64 key (a microsecond-
/// quantized descent) to a sample count and sum.  Insertion past capacity
/// throws std::length_error -- bounded memory is the whole point; the
/// capacity is a constructor knob on the estimator that owns the map.
class KeyStatMap {
 public:
  struct Entry {
    std::int64_t key = 0;
    std::uint64_t count = 0;  // 0 = empty slot
    double sum = 0.0;
  };

  /// Capacity is rounded up to a power of two; `capacity` is the maximum
  /// number of *distinct* keys accepted.
  explicit KeyStatMap(std::size_t capacity);

  void add(std::int64_t key, double value);
  std::size_t distinct() const { return occupied_; }

  /// Occupied entries sorted by key ascending, written into `out` (cleared
  /// first; its capacity is reserved at construction time by the owner).
  void sorted_entries(std::vector<Entry>& out) const;

 private:
  Entry* slot_for(std::int64_t key);

  std::vector<Entry> slots_;
  std::size_t mask_ = 0;
  std::size_t occupied_ = 0;
  std::size_t capacity_ = 0;
};

/// Run-length (key, count) entries of `keys`, ascending by key, sums left
/// at zero: the batch estimators' counterpart of
/// KeyStatMap::sorted_entries.
std::vector<KeyStatMap::Entry> sorted_key_counts(
    std::vector<std::int64_t> keys);

/// The adjacent tick pair (key, key + tick) with the largest combined
/// count over `sorted` (strictly increasing keys).  A quantized clock
/// splits a point mass over exactly two adjacent ticks, so this is where
/// estimate_bottleneck, analyze_phase_plot and StreamingPhaseFit look for
/// their compression cluster.  Ties keep the first pair in key order;
/// count == 0 when `sorted` is empty.
struct TickPair {
  std::int64_t key = 0;
  std::uint64_t count = 0;
};
TickPair heaviest_adjacent_ticks(std::span<const KeyStatMap::Entry> sorted,
                                 std::int64_t tick);

}  // namespace detail

// ---------------------------------------------------------------------------
// StreamingLossState
// ---------------------------------------------------------------------------

/// Streaming ulp / clp / plg (paper section 5) and the Gilbert fit.  push()
/// one probe outcome at a time in sequence order; stats() snapshots the
/// LossStats of the pushed prefix, including the still-open trailing loss
/// run.  loss_stats() and fit_gilbert() are folds over this class.
class StreamingLossState {
 public:
  /// `burst_capacity` reserves the burst-length histogram; a loss run
  /// longer than every previous run *and* the reservation grows the
  /// vector (the only allocation push() can ever perform — sized so it
  /// never happens in realistic traces).
  explicit StreamingLossState(std::size_t burst_capacity = 64);

  /// The paper's convention: a zero rtt marks a lost probe.
  void push(Duration rtt) { push_lost(rtt == Duration::zero()); }
  void push_lost(bool lost);

  std::size_t probes() const { return probes_; }
  std::size_t losses() const { return losses_; }
  /// Cheap online accessor (an obs Sampler probe): losses / probes.
  double loss_fraction() const;

  /// The LossStats of the pushed prefix.  Throws std::invalid_argument
  /// when nothing was pushed.  Allocates the snapshot's burst vector; the
  /// push path stays allocation-free.
  LossStats stats() const;

  /// The Gilbert fit of the pushed prefix; throws std::invalid_argument
  /// below two samples.
  GilbertFit gilbert() const;

 private:
  std::size_t probes_ = 0;
  std::size_t losses_ = 0;
  // Transition counters over consecutive pairs; clp = 1 - q is
  // (lost_pairs_ - lost_to_ok_) / lost_pairs_.
  std::size_t ok_pairs_ = 0;    // (ok, *) pairs
  std::size_t ok_to_lost_ = 0;  // (ok, lost) pairs
  std::size_t lost_pairs_ = 0;  // (lost, *) pairs
  std::size_t lost_to_ok_ = 0;  // (lost, ok) pairs
  std::size_t run_ = 0;         // open loss run length
  bool have_prev_ = false;
  bool prev_lost_ = false;
  std::vector<std::size_t> closed_bursts_;  // index k = runs of length k+1
};

// ---------------------------------------------------------------------------
// StreamingLindley
// ---------------------------------------------------------------------------

struct StreamingLindleyConfig {
  Duration delta;                               // probe spacing
  ByteSize probe_wire;                          // P at the bottleneck
  Bandwidth bottleneck = Bandwidth::kbps(128);  // mu used to invert eq. (6)
  Duration bin = Duration::millis(1);
  /// Histogram upper edge.  analyze_workload() can auto-size this from
  /// max(g_n) with a pre-pass; a one-pass estimator cannot, so it is
  /// required here (constructor throws when zero).
  Duration max;
  double min_peak_mass = 0.01;
  /// Reference cross-traffic packet for labeling peaks.
  ByteSize reference_packet = ByteSize::bytes(512);
};

/// Streaming eq.-(6) workload inversion: g_n = rtt_{n+1} - rtt_n + delta
/// over consecutively received probes, histogrammed online.
class StreamingLindley {
 public:
  explicit StreamingLindley(const StreamingLindleyConfig& config);
  /// analyze_workload()'s parameterization.  `options.max_ms` is the
  /// resolved histogram edge, used as given (a Duration round trip would
  /// round an auto-sized edge to whole nanoseconds and move the bins);
  /// Histogram throws unless it is positive.
  StreamingLindley(Duration delta, ByteSize probe_wire,
                   const WorkloadOptions& options);

  /// Push the next probe in sequence order.  A lost probe breaks the
  /// consecutive pair exactly as in workload_samples_ms().
  void push_received(Duration rtt);
  void push_lost() { have_prev_ = false; }
  /// The paper's convention: a zero rtt marks a lost probe.
  void push(Duration rtt) {
    if (rtt == Duration::zero()) {
      push_lost();
    } else {
      push_received(rtt);
    }
  }

  std::size_t samples() const { return samples_; }
  const Histogram& histogram() const { return histogram_; }
  /// Online accessors (obs Sampler probes): the analysis() fields over
  /// the pushed prefix.
  double mean_workload_bits() const;
  double busy_sample_fraction() const;

  /// The histogram, its decoded peaks and the busy-sample statistics over
  /// the pushed prefix; throws std::invalid_argument when no pair has
  /// formed yet.
  WorkloadAnalysis analysis() const;

 private:
  Histogram histogram_;
  double delta_ms_ = 0.0;
  double mu_bits_per_ms_ = 0.0;
  double probe_bits_ = 0.0;
  double reference_bits_ = 0.0;
  double min_peak_mass_ = 0.0;
  std::size_t samples_ = 0;
  std::size_t busy_ = 0;
  double busy_bits_sum_ = 0.0;
  bool have_prev_ = false;
  double prev_rtt_ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// StreamingPhaseFit
// ---------------------------------------------------------------------------

struct StreamingPhaseFitConfig {
  Duration delta;       // probe spacing
  ByteSize probe_wire;  // P, for the mu-hat inversion
  /// Source clock resolution; zero = exact clock.  For exact batch
  /// equality a nonzero tick must be a whole number of microseconds
  /// (descents then land on the microsecond grid the batch estimator
  /// clusters on).
  Duration clock_tick;
  PhaseAnalysisOptions options{};
  /// tick > 0 only: maximum distinct quantized descent values tracked in
  /// the compression-cluster map (std::length_error past it).  Quantized
  /// descents are multiples of the tick, so a few hundred covers any
  /// realistic trace.
  std::size_t cluster_capacity = 256;
  /// tick > 0 only: same bound for the all-descents map behind
  /// compression_fraction.
  std::size_t band_capacity = 1024;
  /// tick == 0 only: bins per tolerance_ms in the auxiliary descent
  /// histogram behind compression_fraction (sets the approximation
  /// granularity; see fractions_exact()).
  std::size_t band_bins_per_tolerance = 16;
};

/// Streaming phase-plot regression (paper section 4): D-hat from the
/// minimum rtt over plotted pairs, the compression-line intercept
/// delta - P/mu from the descent cluster, mu-hat from the intercept.
class StreamingPhaseFit {
 public:
  explicit StreamingPhaseFit(const StreamingPhaseFitConfig& config);

  /// Push the next probe's rtt in sequence order (zero = lost).
  void push(Duration rtt);

  std::size_t pairs() const { return pairs_; }
  /// Online accessor: minimum rtt over plotted pairs so far (ms);
  /// +infinity before the first pair.
  double fixed_delay_ms() const { return min_rtt_ms_; }

  /// True when compression_fraction in estimate() reproduces the batch
  /// two-pass count sample-for-sample (quantized clocks); false when it
  /// is the documented histogram approximation (exact clocks).
  bool fractions_exact() const { return tick_ms_ > 0.0; }

  /// Equals analyze_phase_plot() over the pushed prefix (see the header
  /// comment for the exactness contract per field); throws
  /// std::invalid_argument when no pair has formed yet.
  PhaseAnalysis estimate() const;

 private:
  void push_pair(double prev_ms, double cur_ms);
  std::optional<double> quantized_intercept() const;
  std::optional<double> binned_intercept() const;
  double band_fraction(double intercept) const;

  double delta_ms_ = 0.0;
  double tick_ms_ = 0.0;
  double probe_bits_ = 0.0;
  PhaseAnalysisOptions options_;
  double d_lo_ = 0.0;

  std::size_t pairs_ = 0;
  std::size_t candidates_ = 0;
  std::size_t on_diagonal_ = 0;
  double min_rtt_ms_ = 0.0;  // +inf until the first pair
  bool have_prev_ = false;
  double prev_rtt_ms_ = 0.0;

  // tick > 0: quantized descent maps (candidates / all descents).
  std::optional<detail::KeyStatMap> cluster_map_;
  std::optional<detail::KeyStatMap> band_map_;
  mutable std::vector<detail::KeyStatMap::Entry> scratch_;

  // tick == 0: candidate histogram mirroring the batch bin layout, with
  // per-bin sums split at the bin center so the modal-neighborhood
  // centroid can be reassembled without the samples.
  std::size_t cand_bins_ = 0;
  double cand_width_ = 0.0;
  std::vector<std::uint64_t> cand_count_;
  std::vector<std::uint64_t> cand_lower_count_;
  std::vector<double> cand_lower_sum_;
  std::vector<double> cand_upper_sum_;
  // Overflowed candidates (d >= delta) that the batch centroid window
  // still reaches when the modal bin is the last one.
  std::uint64_t ovf_in_count_ = 0;
  double ovf_in_sum_ = 0.0;
  double last_center_ = 0.0;
  // tick == 0: auxiliary fine histogram of *all* descents for the
  // compression band count (count + sum per bin; band edges are resolved
  // per bin, hence the documented approximation).
  double band_lo_ = 0.0;
  double band_width_ = 0.0;
  std::vector<std::uint64_t> band_count_;
  std::vector<double> band_sum_;
};

// ---------------------------------------------------------------------------
// StreamingAutocorr
// ---------------------------------------------------------------------------

/// Fixed-lag streaming autocorrelation over the shared Welford summary.
/// Memory is O(max_lag), independent of the stream length: a ring of the
/// last max_lag + 1 values, the first max_lag values, and one
/// cross-product accumulator per lag.  Values are shifted by the first
/// sample before accumulation, which is what keeps the algebraic
/// expansion of the centered products well-conditioned (MODEL_NOTES
/// section 17).
class StreamingAutocorr {
 public:
  explicit StreamingAutocorr(std::size_t max_lag);

  void push(double x);
  /// rtt-driven convenience: pushes rtt in milliseconds.
  void push(Duration rtt) { push(rtt.millis()); }

  std::size_t count() const { return summary_.count(); }
  std::size_t max_lag() const { return max_lag_; }
  /// The StreamingSummary of the pushed values: summarize() over them.
  Summary summary() const { return summary_.summary(); }

  /// Matches autocorrelation(xs, max_lag()) to ~1e-12 relative; throws
  /// std::invalid_argument on an empty or constant stream exactly as the
  /// batch does.  Allocates only the returned vector.
  std::vector<double> acf() const;

 private:
  std::size_t max_lag_;
  StreamingSummary summary_;  // Welford state on the raw values
  double offset_ = 0.0;       // first sample; all sums are of x - offset_
  double shifted_sum_ = 0.0;  // sum of z_i
  std::vector<double> ring_;   // last max_lag_ + 1 shifted values
  std::vector<double> head_;   // first max_lag_ shifted values
  std::vector<double> cross_;  // cross_[l] = sum_i z_i * z_{i+l}
};

}  // namespace bolot::analysis

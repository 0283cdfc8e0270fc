// One-pass, bounded-memory streaming forms of the core estimators.
//
// An N x N tomography mesh analyzes 10^4+ probe streams online in one
// process, so every estimator here is push-driven and allocates nothing on
// the push path after construction.  Each is the *only* implementation of
// its recurrence: the batch entry points are folds over it, so batch and
// streaming results are equal by construction.
//
//   StreamingLossState  -- ulp / clp / plg and the Gilbert refit.
//                          loss_stats() and fit_gilbert() push every
//                          indicator into one and return its snapshot.
//   StreamingPacketPair -- packet-pair return spacings, their median and
//                          cluster centroid.  estimate_bottleneck_packet_pair()
//                          validates and pushes every received record into
//                          one, its array index as the seq.
//
// The third streaming core, the Welford StreamingSummary behind
// summarize(), lives in stats.h.  The eq. (6) workload inversion has no
// streaming form: analyze_workload() (lindley.h) sizes its histogram edge
// in a pre-pass over g_n, then folds the same pair walk a second time.
// The per-estimator contract is documented in docs/ESTIMATORS.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/lindley.h"
#include "analysis/loss.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::analysis {

// ---------------------------------------------------------------------------
// StreamingLossState
// ---------------------------------------------------------------------------

/// Streaming ulp / clp / plg (paper section 5) and the Gilbert fit.
/// push_lost() one probe outcome at a time in sequence order; stats()
/// snapshots the LossStats of the pushed prefix, including the still-open
/// trailing loss run.  loss_stats() and fit_gilbert() are folds over this
/// class.
class StreamingLossState {
 public:
  /// Reserves the burst-length histogram for runs of up to 64 losses; a
  /// loss run longer than every previous run *and* the reservation grows
  /// the vector (the only allocation push_lost() can ever perform — sized
  /// so it never happens in realistic traces).
  StreamingLossState();

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
// StreamingPacketPair
// ---------------------------------------------------------------------------

/// Streaming packet-pair dispersion (Keshav 1991).  push() each return in
/// seq order; a return whose seq directly follows the last pushed one,
/// sent at most kPairSendGap after it, adds its positive return
/// spacing.  Only the last return and the spacings are kept: one double
/// per pair, never per probe.  estimate_bottleneck_packet_pair() is a
/// fold over this class.
class StreamingPacketPair {
 public:
  /// `max_pairs` fixes the spacing capacity: the constructor reserves it
  /// and push() never allocates; a spacing past it throws
  /// std::length_error.
  StreamingPacketPair(ByteSize probe_wire, std::size_t max_pairs);

  /// The return of probe `seq`, sent at `send_time`, back at
  /// `return_time`.  A seq gap breaks the chain (the probes between were
  /// lost).  A seq at or behind the last pushed one is late or a
  /// duplicate: it is counted in rejected() and never pushed.
  void push(std::uint64_t seq, Duration send_time, Duration return_time);

  std::size_t pairs() const { return spacings_ms_.size(); }
  std::size_t rejected() const { return rejected_; }

  /// The median return spacing and the centroid of the spacings within
  /// 1.5 x of it.  Throws std::invalid_argument when no pair has
  /// formed.  Sorts the kept spacings in place; their order is not state.
  BottleneckEstimate estimate();

 private:
  std::vector<double> spacings_ms_;
  double probe_bits_ = 0.0;
  std::size_t rejected_ = 0;
  bool have_last_ = false;
  std::uint64_t last_seq_ = 0;
  Duration last_send_;
  Duration last_return_;
};

}  // namespace bolot::analysis

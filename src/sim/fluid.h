// Hybrid fluid/packet traffic engine (MODEL_NOTES §15).
//
// Bolot's measurements are one probe stream crossing a path dominated by
// background traffic the prober never sees packet-by-packet.  Simulating
// that background per packet costs events proportional to *total* traffic;
// this module makes the cost proportional to *probed* packets instead.
//
// A FluidAggregate is the fluid demand on one link, built and owned by the
// link (Link::attach_fluid), which gives it its capacity and its
// Simulator.  The demand is piecewise constant: either a constant mean
// rate, or a K-state envelope around it (MMPP-style modulation) that costs
// O(1) events per rate edge, independent of the rate itself.  The link
// serves packetized probes at its full rate and adds, per delivered
// packet, a sampled wait whose first two moments match the M/D/1 queue the
// demand displaces — the within-state jitter the paper's rtt_n series show
// — while fluid-vs-fluid contention resolves analytically with zero events
// per fluid "packet".
//
// The 10^5..10^6 background flows themselves are never stored: the
// scenario layer (scenario/build.h) folds their on/off structure to its
// mean (law of large numbers) into each link's demand at set-up, from
// per-host-pair flow counts: zero events and zero bytes per flow.
//
// RNG discipline follows GilbertChannel: a link splits nothing and draws
// nothing unless a fluid stage is attached, so fluid-free runs schedule
// the exact same events and draw the exact same streams as before.
#pragma once

#include <cstdint>

#include "sim/simulator.h"
#include "util/audit.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::sim {

/// How an attached aggregate is charged to packetized traffic: one mode,
/// full-rate service plus a sampled wait whose first two moments match
/// the M/D/1 queue the fluid demand displaces (Poisson arrivals of
/// kBackgroundPacket packets; MODEL_NOTES §15).  No simulator code reads it; the enum and
/// scenario::FluidBackgroundConfig::queue_model stay only because
/// bench/perf_ledger/perf_ledger.cpp assigns them.
enum class FluidQueueModel : std::uint8_t { kMd1Wait };

/// Packet size of background traffic: the size of the packets a fluid
/// demand displaces, for the M/D/1 moments, and of the packetized zone's
/// Poisson sources (scenario/build.cpp).
inline constexpr ByteSize kBackgroundPacket = ByteSize::bytes(512);

/// Piecewise-constant fluid demand on one link of rate `capacity`, driven
/// by that link's Simulator.
///
/// With `envelope_states` 0 the demand is the constant `mean_rate`, and
/// the aggregate schedules nothing.  With K >= 2 states it is an envelope
/// around `mean_rate`: state k emits mean_rate x (1 + 0.5 u_k), with u_k
/// evenly spread over [-1, 1]; each state holds exponential(mean_holding)
/// and then jumps uniformly to one of the other states, so the stationary
/// distribution is uniform and the stationary mean rate is exactly
/// mean_rate.  The envelope enters state 0, the lowest rate, in an event
/// the constructor schedules at the current time.
///
/// `wait_rng` is drawn once or twice per delivered packet, by
/// sample_extra_wait; `envelope_rng` drives the envelope alone.  So the
/// demand trajectory is a pure function of (arguments, envelope seed):
/// replicas built with the same seed in different domains emit identical
/// trajectories, which is how fluid demand crosses PDES cuts without
/// messages (the trajectory IS the notification; MODEL_NOTES §15).
class FluidAggregate {
 public:
  /// Throws std::invalid_argument for a mean rate that is negative or not
  /// finite, for one envelope state, and for an envelope whose holding
  /// time is not positive.
  FluidAggregate(Simulator& sim, Bandwidth capacity, Bandwidth mean_rate,
                 std::size_t envelope_states, Duration mean_holding,
                 Rng wait_rng, Rng envelope_rng);
  FluidAggregate(const FluidAggregate&) = delete;
  FluidAggregate& operator=(const FluidAggregate&) = delete;

  /// Instantaneous total fluid demand (never negative).
  Bandwidth fluid_rate() const;
  /// Fraction of capacity the fluid has consumed on time average in
  /// [0, now] — the fluid half of the link utilization gauge.  Returns 0
  /// at now == 0 (nothing has elapsed to be utilized).
  double utilization(SimTime now) const;

  /// Extra queueing delay for one delivered packet: a two-moment M/D/1
  /// wait sample at the current demand (zero, with no draw, while the
  /// demand is zero).
  Duration sample_extra_wait();

  /// Deep invariant walk (Link::audit_verify calls this when attached).
  void audit_verify() const;

 private:
  void accrue(SimTime now);
  /// Moves the envelope to `state`; every demand change after set-up
  /// happens here.
  void enter(std::size_t state);
  void on_transition(bool rearm);

  Simulator& sim_;
  Bandwidth capacity_;
  Rng wait_rng_;
  /// The demand the link sees.  An envelope moves it by the difference
  /// between successive state rates, snapped to zero when it undershoots
  /// by rounding.
  double rate_bps_ = 0.0;
  /// Piecewise-constant integral of min(demand, capacity)/capacity,
  /// in nanoseconds of equivalent busy time.
  double fluid_busy_ns_ = 0.0;
  SimTime accrued_to_;

  // Envelope (states_ == 0: constant demand).
  Bandwidth mean_rate_;
  std::size_t states_;
  Duration mean_holding_;
  Rng envelope_rng_;
  std::size_t state_ = 0;
  /// The current state's rate; 0 before the envelope's first edge.
  double state_bps_ = 0.0;
};

}  // namespace bolot::sim

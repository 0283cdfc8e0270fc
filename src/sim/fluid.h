// Hybrid fluid/packet traffic engine (MODEL_NOTES §15).
//
// Bolot's measurements are one probe stream crossing a path dominated by
// background traffic the prober never sees packet-by-packet.  Simulating
// that background per packet costs events proportional to *total* traffic;
// this module makes the cost proportional to *probed* packets instead:
//
//   * FluidAggregate — one per link: the sum of all fluid demand crossing
//     that link as a piecewise-constant rate.  The link's transmitter
//     subtracts the demand from its service capacity, so packetized probes
//     see a time-varying residual rate, while fluid-vs-fluid contention
//     resolves analytically with zero events per fluid "packet".
//   * FluidFlow — an event-driven piecewise-constant rate process (an
//     MMPP-style K-state modulated chain) feeding one or more same-domain
//     aggregates.  Cost: O(1) events per rate edge, independent of the
//     rate itself.
//
// The 10^5..10^6 background flows themselves are never stored: the
// scenario layer (scenario/build.h) folds their on/off structure to its
// mean (law of large numbers) into each link's aggregate at set-up, from
// per-host-pair flow counts: zero events and zero bytes per flow.
//
// RNG discipline follows GilbertChannel: a link splits nothing and draws
// nothing unless a fluid stage is attached, so fluid-free runs schedule
// the exact same events and draw the exact same streams as before.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "util/audit.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::sim {

/// How an attached aggregate is charged to packetized traffic.
enum class FluidQueueModel : std::uint8_t {
  /// Serve each packet at the instantaneous residual rate
  /// (capacity - fluid demand).  Deterministic: draws no randomness.
  /// Exact for the mean sojourn of displaced M/M/1 traffic; biases delay
  /// *tails* toward zero because within-state queueing noise is removed.
  kResidualRate,
  /// Serve at full rate and add a sampled waiting time whose first two
  /// moments match the M/D/1 queue the fluid demand displaces (Poisson
  /// arrivals of mean_packet_bytes packets).  Restores delay jitter; used
  /// by the KIA validation (MODEL_NOTES §15).
  kMd1Wait,
};

struct FluidAggregateConfig {
  /// Must equal the attached link's rate (Link::attach_fluid checks).
  Bandwidth capacity = Bandwidth::mbps(1);
  FluidQueueModel queue_model = FluidQueueModel::kResidualRate;
  /// Packet size of the displaced traffic, for the kMd1Wait moments.
  ByteSize mean_packet = ByteSize::bytes(512);
};

/// Piecewise-constant fluid demand on one link.  Owned by the caller
/// (scenario layer), attached to a Link, updated by FluidFlows and by
/// set-up-time base rates.  Must live in the same PDES domain as its link
/// (its Simulator& is the link's).
class FluidAggregate {
 public:
  /// `rng` is only ever drawn in kMd1Wait mode, one draw pair per
  /// delivered packet; in kResidualRate mode the stream sits untouched.
  FluidAggregate(Simulator& sim, FluidAggregateConfig config, Rng rng);

  /// Setup-time registration of time-invariant demand (background flows
  /// folded to their mean rate).  Not an event; no time accrual needed
  /// before the first one, but safe at any simulated time.
  void add_base_rate(Bandwidth rate);

  /// Runtime piecewise change (FluidFlow edges; the delta may be
  /// negative).  Accrues the fluid utilization integral up to now, then
  /// applies the delta.
  void adjust_rate(Bandwidth delta);

  /// Instantaneous total fluid demand (never negative).
  Bandwidth fluid_rate() const;
  /// Instantaneous residual capacity packetized traffic is served at;
  /// never below 1 % of capacity, so an oversubscribed fluid aggregate
  /// slows packets down (a lot) instead of stalling the transmitter
  /// forever.
  Bandwidth residual() const;
  /// Fraction of capacity the fluid has consumed on time average in
  /// [0, now] — the fluid half of the link utilization gauge.  Returns 0
  /// at now == 0 (nothing has elapsed to be utilized).
  double utilization(SimTime now) const;

  /// Service span for one packet of `size` under the configured model.
  Duration service_time(ByteSize size) const;
  /// Extra queueing delay for one delivered packet: zero in
  /// kResidualRate mode (no rng draw), a two-moment M/D/1 wait sample in
  /// kMd1Wait mode.
  Duration sample_extra_wait();

  const FluidAggregateConfig& config() const { return config_; }
  std::uint64_t rate_changes() const { return rate_changes_; }
  std::uint64_t wait_samples() const { return wait_samples_; }

  /// Deep invariant walk (Link::audit_verify calls this when attached).
  void audit_verify() const;

 private:
  void accrue(SimTime now);

  Simulator& sim_;
  FluidAggregateConfig config_;
  Rng rng_;
  double base_rate_bps_ = 0.0;
  double dynamic_rate_bps_ = 0.0;
  std::uint64_t rate_changes_ = 0;
  std::uint64_t wait_samples_ = 0;
  /// Piecewise-constant integral of min(demand, capacity)/capacity,
  /// in nanoseconds of equivalent busy time.
  double fluid_busy_ns_ = 0.0;
  SimTime accrued_to_;
};

/// One piecewise-constant rate process driving same-domain aggregates:
/// a K-state envelope (MMPP-style modulation) around `mean_rate`.  State
/// k emits mean_rate x (1 + 0.5 u_k), with u_k evenly spread over
/// [-1, 1]; each state holds exponential(mean_holding) and then jumps
/// uniformly to one of the other states, so the stationary distribution
/// is uniform and the stationary mean rate is exactly mean_rate.  The
/// chain starts in state 0, the lowest rate.  The constructor throws
/// std::invalid_argument for fewer than 2 states, a negative rate or a
/// non-positive holding time.
/// Rate trajectories are pure functions of (arguments, rng seed):
/// replicas constructed with the same seed in different domains emit
/// identical trajectories, which is how fluid demand crosses PDES cuts
/// without messages (the trajectory IS the notification; MODEL_NOTES §15).
class FluidFlow {
 public:
  FluidFlow(Simulator& sim, Bandwidth mean_rate, std::size_t states,
            Duration mean_holding, Rng rng);

  /// Adds a destination aggregate; must be called before start(), and the
  /// aggregate must be driven by the same Simulator (same PDES domain).
  void attach(FluidAggregate& aggregate);

  /// Begins the rate process, in state 0, at absolute time `at`.
  void start(SimTime at);

  std::uint64_t edges() const { return edges_; }

  void audit_verify() const;

 private:
  void set_rate(double bps);
  void on_transition(bool rearm);

  Simulator& sim_;
  Bandwidth mean_rate_;
  /// State k's rate as a fraction of mean_rate_; every state holds
  /// exponential(mean_holding_) and jumps uniformly to another.
  std::vector<double> state_rate_fraction_;
  Duration mean_holding_;
  Rng rng_;
  std::vector<FluidAggregate*> aggregates_;
  double rate_bps_ = 0.0;
  std::size_t state_ = 0;
  std::uint64_t edges_ = 0;
  bool started_ = false;
};

}  // namespace bolot::sim

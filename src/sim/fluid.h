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
//   * FluidFlow — an event-driven piecewise-constant rate process
//     (deterministic on/off, or an MMPP-style K-state modulated chain)
//     feeding one or more same-domain aggregates.  Cost: O(1) events per
//     rate edge, independent of the rate itself.
//   * FlowTable — compact SoA state for 10^5..10^6 background flows whose
//     on/off structure is folded analytically (law of large numbers) into
//     the aggregates at registration time: zero events per flow.
//
// RNG discipline follows MarkovChannel: a link splits nothing and draws
// nothing unless a fluid stage is attached, so fluid-free runs schedule
// the exact same events and draw the exact same streams as before.
#pragma once

#include <cstdint>
#include <map>
#include <string>
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
  /// Residual rate never drops below this fraction of capacity, so an
  /// oversubscribed fluid aggregate slows packets down (a lot) instead of
  /// stalling the transmitter forever.
  double min_residual_fraction = 0.01;
  /// Packet size of the displaced traffic, for the kMd1Wait moments.
  ByteSize mean_packet = ByteSize::bytes(512);
};

/// Piecewise-constant fluid demand on one link.  Owned by the caller
/// (scenario layer), attached to a Link, updated by FluidFlows and by
/// FlowTable registration.  Must live in the same PDES domain as its link
/// (its Simulator& is the link's).
class FluidAggregate {
 public:
  /// `rng` is only ever drawn in kMd1Wait mode, one draw pair per
  /// delivered packet; in kResidualRate mode the stream sits untouched.
  FluidAggregate(Simulator& sim, FluidAggregateConfig config, Rng rng);

  /// Setup-time registration of time-invariant demand (FlowTable flows
  /// folded to their mean rate).  Not an event; no time accrual needed
  /// before the first one, but safe at any simulated time.
  void add_base_rate(Bandwidth rate);

  /// Runtime piecewise change (FluidFlow edges; the delta may be
  /// negative).  Accrues the fluid utilization integral up to now, then
  /// applies the delta.
  void adjust_rate(Bandwidth delta);

  /// Instantaneous total fluid demand (never negative).
  Bandwidth fluid_rate() const;
  /// Instantaneous residual capacity packetized traffic is served at.
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

/// Configuration of one event-driven fluid rate process.
struct FluidFlowConfig {
  Bandwidth peak_rate = Bandwidth::mbps(1);
  /// Deterministic on/off: ON for duty*period, OFF for the rest, first ON
  /// edge `phase` after start.  Zero period = constant at peak_rate
  /// from start on (no events).
  Duration period;
  double duty = 1.0;
  Duration phase;
  /// MMPP-style modulation: when non-empty, the flow is a K-state chain
  /// emitting peak_rate * state_rate_fraction[k] in state k, holding
  /// exponential(mean_holding[k]) and jumping by the row-stochastic
  /// `transition` matrix (row-major K x K, zero diagonal).  Overrides the
  /// on/off fields.
  std::vector<double> state_rate_fraction;
  std::vector<Duration> mean_holding;
  std::vector<double> transition;
  std::size_t initial_state = 0;

  bool modulated() const { return !state_rate_fraction.empty(); }
  std::size_t state_count() const { return state_rate_fraction.size(); }

  /// An evenly spread K-state envelope around a mean of 1.0: fractions in
  /// [1-swing, 1+swing], uniform transitions, common holding time.  The
  /// stationary mean rate is exactly peak_rate.
  static FluidFlowConfig envelope(Bandwidth peak_rate, std::size_t states,
                                  double swing, Duration mean_holding);
};

/// One piecewise-constant rate process driving same-domain aggregates.
/// Rate trajectories are pure functions of (config, rng seed): replicas
/// constructed with the same seed in different domains emit identical
/// trajectories, which is how fluid demand crosses PDES cuts without
/// messages (the trajectory IS the notification; MODEL_NOTES §15).
class FluidFlow {
 public:
  FluidFlow(Simulator& sim, FluidFlowConfig config, Rng rng);

  /// Adds a destination aggregate; must be called before start(), and the
  /// aggregate must be driven by the same Simulator (same PDES domain).
  void attach(FluidAggregate& aggregate);

  /// Begins the rate process at absolute time `at`.
  void start(SimTime at);

  Bandwidth rate() const { return Bandwidth::bps(rate_bps_); }
  std::size_t state() const { return state_; }
  std::uint64_t edges() const { return edges_; }

  void audit_verify() const;

 private:
  void set_rate(double bps);
  void on_onoff_edge();
  void on_transition(bool rearm);

  Simulator& sim_;
  FluidFlowConfig config_;
  Rng rng_;
  std::vector<FluidAggregate*> aggregates_;
  double rate_bps_ = 0.0;
  std::size_t state_ = 0;
  bool on_ = false;
  std::uint64_t edges_ = 0;
  bool started_ = false;
};

/// Compact per-flow state for the 10^5..10^6 background flows of one run.
/// Structure-of-arrays; flow ids are dense (the row index), routes are
/// interned so flows sharing a path share one arena slice.  Flows here
/// cost zero events: their deterministic on/off structure is folded to
/// its mean when registered into the per-link aggregates, which is exact
/// in the many-flows limit (law of large numbers; MODEL_NOTES §15).
class FlowTable {
 public:
  using FlowId = std::uint32_t;
  using RouteId = std::uint32_t;

  /// Interns a route given as directed link uids (Network link indices).
  /// Identical sequences return the same RouteId.  Throws
  /// std::invalid_argument when the route is empty, too long, or repeats
  /// a link (a flow crosses each link at most once; link_demand relies on
  /// it).  One ordered-map lookup per call: intern once per path, not
  /// once per flow.
  RouteId intern_route(const std::vector<std::uint32_t>& link_uids);

  /// Reserves SoA storage for `flows` flows in total.
  void reserve(std::size_t flows);

  /// Appends a flow; returns its dense id (== previous size()).
  /// `external_id` is the caller's identifier (hash, tuple, ...), kept
  /// for reverse lookup; it need not be unique or dense.  Throws
  /// std::invalid_argument for a negative or non-finite peak rate (after
  /// narrowing to float) or a duty outside [0, 1], NaN included.  Adds
  /// the flow's mean rate to every link of its route: O(route length).
  FlowId add_flow(std::uint64_t external_id, RouteId route,
                  Bandwidth peak_rate, float duty,
                  Duration period = Duration::zero(),
                  Duration phase = Duration::zero());

  std::size_t size() const { return peak_rate_bps_.size(); }
  std::size_t route_count() const { return route_offset_.size(); }

  std::uint64_t external_id(FlowId f) const { return external_id_.at(f); }
  /// First flow with this external id; throws std::out_of_range if absent.
  /// Linear scan — tooling/tests only, not a datapath operation.
  FlowId find(std::uint64_t external_id) const;

  /// Stored at float precision (the SoA budget); the returned Bandwidth
  /// carries the float value widened back to double.
  Bandwidth peak_rate(FlowId f) const {
    return Bandwidth::bps(static_cast<double>(peak_rate_bps_.at(f)));
  }
  float duty(FlowId f) const { return duty_.at(f); }
  RouteId route(FlowId f) const { return route_.at(f); }
  /// Long-run mean rate: peak * duty.
  Bandwidth mean_rate(FlowId f) const;
  /// Instantaneous rate of the deterministic on/off process at `t`
  /// (peak while ON, zero while OFF; constant mean when period is zero).
  Bandwidth rate_at(FlowId f, SimTime t) const;

  std::size_t route_length(RouteId r) const;
  std::uint32_t route_link(RouteId r, std::size_t i) const;

  /// Folds every flow to its mean rate and adds it to the aggregate of
  /// each link on its route: by_link_uid[uid] may be nullptr (packetized
  /// or unloaded link — the flow's demand there is simply not modeled as
  /// fluid).  `scale` multiplies every rate (load calibration).
  /// O(flows x route length): one add_base_rate per flow per hop.
  void register_mean_rates(const std::vector<FluidAggregate*>& by_link_uid,
                           double scale = 1.0) const;
  /// Sum of mean rates over flows whose route contains link `uid` (0 for
  /// a link no route crosses).  O(1): add_flow folds each flow into a
  /// per-link column as it is appended, in flow order, which is the same
  /// sequence of additions a scan over the flows would make.
  Bandwidth link_demand(std::uint32_t uid) const;

  /// Bytes of SoA storage per flow, the contract that makes 10^6 flows a
  /// ~40 MB statement (routes are shared, so the arena amortizes out).
  static constexpr std::size_t kBytesPerFlow =
      sizeof(std::uint64_t) +  // external_id_
      sizeof(float) +          // peak_rate_bps_
      sizeof(float) +          // duty_
      sizeof(std::int64_t) +   // period_ns_
      sizeof(std::int64_t) +   // phase_ns_
      sizeof(RouteId);         // route_
  static_assert(kBytesPerFlow <= 64,
                "FlowTable: per-flow SoA footprint exceeds the 64-byte "
                "budget — 10^6-flow runs stop being cheap");

  void audit_verify() const;

 private:
  // SoA columns, one entry per flow (kBytesPerFlow tracks these).
  std::vector<std::uint64_t> external_id_;
  std::vector<float> peak_rate_bps_;
  std::vector<float> duty_;
  std::vector<std::int64_t> period_ns_;
  std::vector<std::int64_t> phase_ns_;
  std::vector<RouteId> route_;

  // Route arena: interned link-uid sequences.
  std::vector<std::uint32_t> route_offset_;
  std::vector<std::uint16_t> route_len_;
  std::vector<std::uint32_t> route_links_;
  /// Dedup index; setup-time only (ordered map: deterministic, and the
  /// src/sim unordered-iteration lint stays trivially satisfied).
  std::map<std::vector<std::uint32_t>, RouteId> interned_;

  /// Per link uid (not per flow): summed mean rate of the flows crossing
  /// it, sized to the largest interned uid + 1.
  std::vector<double> link_demand_bps_;
};

}  // namespace bolot::sim

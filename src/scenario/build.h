// The one scenario build pipeline behind run_chain (scenarios.cpp),
// run_topology (topology_run.cpp) and run_tomography (tomography.cpp):
//
//   plan -> clamp -> kernel -> wiring -> background -> probes -> obs -> run
//
// Scenario-internal; not part of the public API.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "scenario/scenarios.h"
#include "scenario/topology_gen.h"
#include "sim/fluid.h"
#include "sim/network.h"
#include "sim/pdes.h"
#include "sim/simulator.h"
#include "sim/traffic.h"
#include "sim/udp_echo.h"
#include "util/rng.h"

namespace bolot::scenario::detail {

/// Throws std::invalid_argument naming the first field of `overrides` that
/// belongs to the other kind of scenario (`chain`: the caller is one of the
/// paper's paths), so a foreign knob never yields a plausible wrong run.
void reject_foreign_overrides(const ScenarioOverrides& overrides, bool chain);

/// A plan instantiated on its kernel.  NodeId == plan node index (the
/// Network is fresh, and nodes are added in plan order).
class ScenarioBuild {
 public:
  /// Clamps `requested` PDES domains against `plan`'s partition hints,
  /// falling back to 1 when `sampled` (a sampler reads state across the
  /// whole topology) or when a cut edge would have zero lookahead
  /// (MODEL_NOTES §14).  Then builds the sequential or parallel kernel, a
  /// Network seeded with `seed`, and the routed topology.  `plan` must
  /// outlive the build.
  ScenarioBuild(const TopologyPlan& plan, std::size_t requested,
                bool sampled, std::uint64_t seed);

  const TopologyPlan& plan() const { return plan_; }
  sim::Network& net() { return net_; }
  std::size_t domains() const { return domains_; }
  /// The simulator of `node`'s domain: every object at a node binds here.
  sim::Simulator& sim_for(sim::NodeId node) {
    return sim_of(built_.node_domain.at(node));
  }
  /// Ends wiring: under PDES, connects the cut links to handoff channels.
  /// Call after every object is built and before any is started.
  void finish() {
    if (psim_) psim_->attach(net_, built_.node_domain);
  }
  void run_until(SimTime end) {
    if (psim_) return psim_->run_until(end);
    seq_->run_until(end);
  }
  std::uint64_t events() const {
    return psim_ ? psim_->events_dispatched() : seq_->events_dispatched();
  }

 private:
  sim::Simulator& sim_of(std::size_t domain) {
    return psim_ ? psim_->simulator(domain) : *seq_;
  }

  const TopologyPlan& plan_;
  std::size_t domains_;
  std::optional<sim::ParallelSimulation> psim_;
  std::optional<sim::Simulator> seq_;
  sim::Network net_;
  BuiltTopology built_;
};

/// A run's FluidBackgroundConfig population on a generated fabric:
/// `flows` on/off flows between seeded random host pairs.  Flows whose
/// route touches the packetized zone become Poisson packet sources; the
/// rest fold to their mean rate into one FluidAggregate (plus an optional
/// envelope FluidFlow) per loaded link, homed in the link's domain and
/// seeded by link uid, so set-up does not depend on the domain count.
///
/// Set-up keeps O(hosts^2 + links) state, none of it per flow: one replay
/// of the pair stream counts flows per host pair, each drawn pair is
/// routed once, and a link's demand is its per-flow addend summed once
/// per crossing flow (MODEL_NOTES §15).  Only packetized flows are
/// replayed in flow order, to build their sources.
class FluidBackground {
 public:
  /// `in_zone` flags packetized links by uid (empty: no zone, every flow
  /// is fluid).  Throws std::invalid_argument naming the field when
  /// `config` is malformed.
  FluidBackground(const FluidBackgroundConfig& config, ScenarioBuild& build,
                  const std::vector<bool>& in_zone);

  /// Starts every envelope at time zero, then every packet source at a
  /// seeded offset in [0, 100) ms.
  void start();

  std::size_t fluid_flows() const { return fluid_flows_; }
  std::size_t packetized_flows() const { return packetized_; }
  /// Summed mean rate of the fluid flows crossing link `uid`.
  Bandwidth link_demand(std::uint32_t uid) const {
    return Bandwidth::bps(link_demand_bps_.at(uid));
  }

 private:
  std::vector<double> link_demand_bps_;
  std::vector<std::unique_ptr<sim::FluidAggregate>> aggregates_;
  std::vector<std::unique_ptr<sim::FluidFlow>> envelopes_;
  std::vector<std::unique_ptr<sim::TrafficSource>> sources_;
  std::size_t fluid_flows_ = 0;
  std::size_t packetized_ = 0;
  Rng packet_rng_;
};

/// The NetDyn measurement run_chain and run_topology share: an echo host
/// at `dst`, a UdpEchoSource at `src`, and — when obs_sample_interval is
/// set, which only a chain allows — a MetricsRegistry and a Sampler the
/// caller wires up.
class ProbedRun {
 public:
  /// Warm-up before the probe run so background traffic reaches steady
  /// state, and drain afterwards so in-flight echoes are counted.
  static constexpr Duration kWarmup = Duration::seconds(5);
  static constexpr Duration kDrain = Duration::seconds(2);

  /// `clock_tick` quantizes the source clock (zero = exact).
  ProbedRun(ScenarioBuild& build, const ProbePlan& plan, Duration clock_tick,
            sim::NodeId src, sim::NodeId dst,
            const ScenarioOverrides& overrides);

  sim::UdpEchoSource& probe() { return probe_; }
  obs::MetricsRegistry& registry() { return registry_; }
  /// Null unless sampling, which keeps the run on one simulator.
  obs::Sampler* sampler() { return sampler_ ? &*sampler_ : nullptr; }

  /// Finishes the build, then starts the background, the probe and the
  /// sampler in that order (seq numbers break same-time ties, so the order
  /// is part of the output), runs through the drain, and fills every
  /// ScenarioResult field the two entry points share.  `fwd`/`rev` are the
  /// two directions of the link reported as the bottleneck.
  ScenarioResult run(const std::function<void()>& start_background,
                     const sim::Link& fwd, const sim::Link& rev);

 private:
  ScenarioBuild& build_;
  Duration duration_;
  sim::NodeId src_;
  sim::NodeId dst_;
  sim::EchoHost echo_;
  sim::UdpEchoSource probe_;
  obs::MetricsRegistry registry_;
  std::optional<obs::Sampler> sampler_;
};

}  // namespace bolot::scenario::detail

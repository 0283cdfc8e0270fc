// Set-up shared by the generated-topology entry points, run_topology
// (topology_run.cpp) and run_tomography (tomography.cpp): the PDES domain
// clamp and the fluid background population.  Scenario-internal; not
// part of the public API.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "scenario/scenarios.h"
#include "scenario/topology_gen.h"
#include "sim/fluid.h"
#include "sim/network.h"
#include "sim/traffic.h"
#include "util/rng.h"

namespace bolot::scenario::detail {

/// Effective PDES domain count for a generated topology: `requested`
/// clamped against the *generator's* partition hints — not any route
/// length; a mesh has no single route — with the same fallbacks as the
/// chain scenarios: 1 when a sampler is on (`sampled`) or when any cut
/// edge would have zero lookahead.
std::size_t effective_fabric_domains(const TopologyPlan& topo,
                                     std::size_t requested, bool sampled);

/// A run's FluidBackgroundConfig population on a generated fabric:
/// `flows` on/off flows between seeded random host pairs.  Flows whose
/// route touches the packetized zone become Poisson packet sources; the
/// rest fold into a FlowTable and one FluidAggregate (plus an optional
/// envelope FluidFlow) per loaded link, homed in the link's domain and
/// seeded by link uid, so set-up does not depend on the domain count.
///
/// Set-up costs O(flows x route length) with no map lookup per flow: a
/// dense hosts x hosts table routes and interns each drawn pair once, and
/// per-link demand comes folded out of FlowTable::add_flow.
class FluidBackground {
 public:
  /// `net` must be routed; `in_zone` flags packetized links by uid
  /// (empty: no zone, every flow is fluid); a node's objects bind to
  /// `sim_of(domain_of_node[node])`.  Throws std::invalid_argument naming
  /// the field when `config` is malformed.
  FluidBackground(const FluidBackgroundConfig& config,
                  const TopologyPlan& topo, const BuiltTopology& built,
                  sim::Network& net, const std::vector<bool>& in_zone,
                  const std::vector<std::size_t>& domain_of_node,
                  const std::function<sim::Simulator&(std::size_t)>& sim_of);

  /// Starts every envelope at time zero, then every packet source at a
  /// seeded offset in [0, 100) ms.
  void start();

  /// The fluid (folded) flows; link_demand(uid) is each link's demand.
  const sim::FlowTable& table() const { return table_; }
  std::size_t packetized_flows() const { return packetized_; }

 private:
  sim::FlowTable table_;
  std::vector<std::unique_ptr<sim::FluidAggregate>> aggregates_;
  std::vector<std::unique_ptr<sim::FluidFlow>> envelopes_;
  std::vector<std::unique_ptr<sim::TrafficSource>> sources_;
  std::size_t packetized_ = 0;
  Rng packet_rng_;
};

}  // namespace bolot::scenario::detail

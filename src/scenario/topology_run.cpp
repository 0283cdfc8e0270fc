// run_topology: probe a generated topology (topology_gen.h) loaded by a
// large background flow population served hybrid fluid/packet (sim/fluid.h,
// MODEL_NOTES §15).  Flows whose route touches the packetized zone around
// the probed path are simulated packet-by-packet; everything else is folded
// into per-link fluid aggregates, so the event cost of a run scales with
// probed/packetized packets rather than with the flow count.
#include "scenario/scenarios.h"

#include <limits>
#include <queue>
#include <stdexcept>
#include <vector>

#include "obs/trace.h"
#include "scenario/build.h"

namespace bolot::scenario {

namespace {

/// Multi-source BFS over the undirected wiring: hop distance from every
/// node to the nearest probe-path node (path nodes are distance 0).
std::vector<std::size_t> hops_from_path(
    const TopologyPlan& topo, const std::vector<bool>& on_path) {
  constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();
  std::vector<std::vector<std::uint32_t>> adjacency(topo.nodes.size());
  for (const TopologyPlan::EdgeSpec& edge : topo.edges) {
    adjacency[edge.a].push_back(edge.b);
    adjacency[edge.b].push_back(edge.a);
  }
  std::vector<std::size_t> dist(topo.nodes.size(), kUnreached);
  std::queue<std::uint32_t> frontier;
  for (std::uint32_t n = 0; n < topo.nodes.size(); ++n) {
    if (on_path[n]) {
      dist[n] = 0;
      frontier.push(n);
    }
  }
  while (!frontier.empty()) {
    const std::uint32_t n = frontier.front();
    frontier.pop();
    for (const std::uint32_t m : adjacency[n]) {
      if (dist[m] == kUnreached) {
        dist[m] = dist[n] + 1;
        frontier.push(m);
      }
    }
  }
  return dist;
}

}  // namespace

ScenarioResult run_topology(const ProbePlan& plan,
                            const ScenarioOverrides& overrides) {
  TRACE_SCOPE("scenario.run_topology");
  detail::reject_foreign_overrides(overrides, /*chain=*/false);
  if (!overrides.topology) {
    throw std::invalid_argument("run_topology: overrides.topology required");
  }
  const TopologyPlan topo = generate_topology(*overrides.topology);
  if (topo.hosts.size() < 2) {
    throw std::invalid_argument("run_topology: need at least two hosts");
  }
  detail::ScenarioBuild build(topo, plan.seed);
  sim::Network& net = build.net();

  // The probe travels between the first and last generated hosts, which
  // the generators place in different partitions (pod 0 vs the last pod /
  // AS), so the probe crosses the fabric core.
  const sim::NodeId probe_src = topo.hosts.front();
  const sim::NodeId probe_dst = topo.hosts.back();
  const std::vector<std::uint32_t> probe_fwd =
      net.route_links(probe_src, probe_dst);

  // Packetized zone: links all of whose endpoints are within
  // packetize_radius hops of a probe-path node.  radius 0 = the probed
  // path's own links (and path-to-path shortcuts); nullopt = no zone.
  std::vector<bool> in_zone(net.link_count(), false);
  if (overrides.packetize_radius) {
    std::vector<bool> on_path(topo.nodes.size(), false);
    for (const sim::TracerouteHop& hop : net.traceroute(probe_src, probe_dst)) {
      on_path[hop.node] = true;
    }
    const std::vector<std::size_t> dist = hops_from_path(topo, on_path);
    for (std::size_t i = 0; i < net.link_count(); ++i) {
      in_zone[i] = dist[net.link_source(i)] <= *overrides.packetize_radius &&
                   dist[net.link_target(i)] <= *overrides.packetize_radius;
    }
  }

  // Background population: fluid everywhere but the packetized zone.
  detail::FluidBackground background(
      overrides.fluid_background.value_or(FluidBackgroundConfig{}), build,
      in_zone);

  detail::ProbedRun run(build, plan,
                        overrides.clock_tick.value_or(Duration::zero()),
                        probe_src, probe_dst, overrides);

  // The probe path's slowest forward link plays the bottleneck role in
  // the result (generated fabrics have no designated bottleneck hop).
  std::uint32_t bneck_uid = probe_fwd.front();
  for (const std::uint32_t uid : probe_fwd) {
    if (net.link_at(uid).config().rate <
        net.link_at(bneck_uid).config().rate) {
      bneck_uid = uid;
    }
  }
  // instantiate_topology adds each edge as the link pair 2e, 2e + 1.
  sim::Link& bneck_fwd = net.link_at(bneck_uid);
  sim::Link& bneck_rev = net.link_at(bneck_uid ^ 1u);

  ScenarioResult result =
      run.run([&] { background.start(); }, bneck_fwd, bneck_rev);
  result.background_flows_fluid = background.fluid_flows();
  result.background_flows_packetized = background.packetized_flows();
  std::vector<std::uint32_t> round_trip = probe_fwd;
  const std::vector<std::uint32_t> echo_path =
      net.route_links(probe_dst, probe_src);
  round_trip.insert(round_trip.end(), echo_path.begin(), echo_path.end());
  result.probe_hops.reserve(round_trip.size());
  for (const std::uint32_t uid : round_trip) {
    ScenarioResult::ProbeHop hop;
    hop.capacity = net.link_at(uid).config().rate;
    hop.propagation = net.link_at(uid).config().propagation;
    hop.fluid = background.link_demand(uid);
    result.probe_hops.push_back(hop);
  }
  return result;
}

}  // namespace bolot::scenario

// run_topology: probe a generated topology (topology_gen.h) loaded by a
// large background flow population served hybrid fluid/packet (sim/fluid.h,
// MODEL_NOTES §15).  Flows whose route touches the packetized zone around
// the probed path are simulated packet-by-packet; everything else is folded
// into per-link fluid aggregates, so the event cost of a run scales with
// probed/packetized packets rather than with the flow count.
#include "scenario/scenarios.h"

#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "obs/sampler.h"
#include "obs/trace.h"
#include "scenario/fabric_build.h"
#include "sim/pdes.h"
#include "sim/simulator.h"
#include "sim/udp_echo.h"

namespace bolot::scenario {

namespace {

constexpr Duration kTopoWarmup = Duration::seconds(5);
constexpr Duration kTopoDrain = Duration::seconds(2);

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
  if (!overrides.topology) {
    throw std::invalid_argument("run_topology: overrides.topology required");
  }
  const TopologyPlan topo = generate_topology(*overrides.topology);
  if (topo.hosts.size() < 2) {
    throw std::invalid_argument("run_topology: need at least two hosts");
  }
  const std::size_t domains = detail::effective_fabric_domains(
      topo, overrides.domains, overrides.obs_sample_interval.has_value());
  std::optional<sim::ParallelSimulation> psim;
  std::optional<sim::Simulator> seq;
  if (domains > 1) {
    psim.emplace(domains);
  } else {
    seq.emplace();
  }
  const auto sim_of = [&](std::size_t domain) -> sim::Simulator& {
    return psim ? psim->simulator(domain) : *seq;
  };

  sim::Network net(sim_of(0), plan.seed);
  const BuiltTopology built = instantiate_topology(topo, net, domains, sim_of);
  net.compute_routes();

  // Plan node index -> domain, by NodeId (add order == plan order).
  std::vector<std::size_t> domain_of_node(net.node_count(), 0);
  for (std::size_t i = 0; i < built.nodes.size(); ++i) {
    domain_of_node[built.nodes[i]] = built.node_domain[i];
  }

  // The probe travels between the first and last generated hosts, which
  // the generators place in different partitions (pod 0 vs the last pod /
  // AS), so the probe crosses the fabric core.
  const sim::NodeId probe_src = built.nodes[topo.hosts.front()];
  const sim::NodeId probe_dst = built.nodes[topo.hosts.back()];
  const std::vector<std::uint32_t> probe_fwd =
      net.route_links(probe_src, probe_dst);

  // Packetized zone: links all of whose endpoints are within
  // packetize_radius hops of a probe-path node.  radius 0 = the probed
  // path's own links (and path-to-path shortcuts); nullopt = no zone.
  std::vector<bool> in_zone(net.link_count(), false);
  if (overrides.packetize_radius) {
    std::vector<bool> on_path(topo.nodes.size(), false);
    for (const sim::TracerouteHop& hop : net.traceroute(probe_src, probe_dst)) {
      on_path[hop.node] = true;  // NodeId == plan node index (add order)
    }
    const std::vector<std::size_t> dist = hops_from_path(topo, on_path);
    for (std::size_t i = 0; i < net.link_count(); ++i) {
      in_zone[i] = dist[net.link_source(i)] <= *overrides.packetize_radius &&
                   dist[net.link_target(i)] <= *overrides.packetize_radius;
    }
  }

  // Background population: fluid everywhere but the packetized zone.
  detail::FluidBackground background(
      overrides.fluid_background.value_or(FluidBackgroundConfig{}), topo,
      built, net, in_zone, domain_of_node, sim_of);

  // NetDyn endpoints.
  sim::EchoHost echo(sim_of(domain_of_node[probe_dst]), net, probe_dst);
  sim::ProbeSourceConfig probe_config;
  probe_config.delta = plan.delta;
  probe_config.probe_wire = plan.probe_wire;
  probe_config.probe_count = plan.probe_count();
  if (overrides.clock_tick && *overrides.clock_tick > Duration::zero()) {
    probe_config.clock_tick = *overrides.clock_tick;
  }
  sim::UdpEchoSource probe_source(sim_of(domain_of_node[probe_src]), net,
                                  probe_src, probe_dst, probe_config);

  // The probe path's slowest forward link plays the bottleneck role in
  // the result (generated fabrics have no designated bottleneck hop).
  std::uint32_t bneck_uid = probe_fwd.front();
  for (const std::uint32_t uid : probe_fwd) {
    if (net.link_at(uid).config().rate <
        net.link_at(bneck_uid).config().rate) {
      bneck_uid = uid;
    }
  }
  sim::Link& bneck_fwd = net.link_at(bneck_uid);
  sim::Link& bneck_rev =
      net.link(net.link_target(bneck_uid), net.link_source(bneck_uid));

  obs::MetricsRegistry registry;
  std::optional<obs::Sampler> sampler;
  if (overrides.obs_sample_interval) {
    sim::Simulator& simulator = sim_of(0);
    sampler.emplace(simulator, *overrides.obs_sample_interval,
                    overrides.obs_series_budget);
    // Every forward hop of the probed path publishes under a stable
    // prefix; fluid-served hops add their fluid gauges automatically
    // (Link::publish_metrics).
    for (std::size_t h = 0; h < probe_fwd.size(); ++h) {
      net.link_at(probe_fwd[h])
          .publish_metrics(registry, "path.hop" + std::to_string(h));
    }
    probe_source.publish_metrics(registry);
    obs::watch_queue_packets(*sampler, bneck_fwd);
    obs::watch_utilization(*sampler, bneck_fwd, simulator);
    obs::watch_probe_rtt_ms(*sampler, probe_source);
  }

  if (psim) {
    psim->attach(net, built.node_domain);
  }
  background.start();
  probe_source.start(kTopoWarmup);
  if (sampler) sampler->start(kTopoWarmup);

  const Duration end = kTopoWarmup + plan.duration + kTopoDrain;
  if (psim) {
    psim->run_until(end);
  } else {
    seq->run_until(end);
  }
  if (sampler) sampler->stop();

  ScenarioResult result;
  result.trace = probe_source.trace();
  result.route = net.traceroute(probe_src, probe_dst);
  result.bottleneck_forward = bneck_fwd.stats();
  result.bottleneck_reverse = bneck_rev.stats();
  result.total_overflow_drops = net.total_overflow_drops();
  result.total_random_drops = net.total_random_drops();
  result.total_channel_drops = net.total_channel_drops();
  result.hop_deliveries = net.total_delivered();
  result.simulated = end;
  result.events =
      psim ? psim->events_dispatched() : seq->events_dispatched();
  result.domains_used = domains;
  if (sampler) {
    result.metrics = registry.snapshot(sim_of(0).now());
    result.series = sampler->snapshot();
  }
  result.background_flows_fluid = background.table().size();
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
    hop.fluid = background.table().link_demand(uid);
    result.probe_hops.push_back(hop);
  }
  return result;
}

}  // namespace bolot::scenario

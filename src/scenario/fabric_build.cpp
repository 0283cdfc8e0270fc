#include "scenario/fabric_build.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace bolot::scenario::detail {

namespace {

/// Every comparison with NaN is false, so a NaN field would otherwise pass
/// the downstream range checks and reach every aggregate as a plausible
/// wrong answer.
void validate(const FluidBackgroundConfig& c) {
  const double peak = c.flow_peak.bps();
  const std::pair<bool, const char*> checks[] = {
      {c.duty >= 0.0 && c.duty <= 1.0, "duty outside [0, 1]"},
      {c.max_link_load > 0.0 && c.max_link_load <= 1.0,
       "max_link_load outside (0, 1]"},
      {std::isfinite(peak) && peak >= 0.0,
       "flow_peak must be finite and non-negative"},
      {c.period >= Duration::zero(), "period is negative"},
      {c.mean_packet > ByteSize::zero(), "mean_packet must be positive"},
      {c.envelope_states != 1,
       "envelope_states must be 0 (unmodulated) or at least 2"},
      {c.envelope_swing >= 0.0 && c.envelope_swing < 1.0,
       "envelope_swing outside [0, 1)"},
  };
  for (const auto& [ok, what] : checks) {
    if (!ok) {
      throw std::invalid_argument(std::string("FluidBackgroundConfig: ") +
                                  what);
    }
  }
}

}  // namespace

std::size_t effective_fabric_domains(const TopologyPlan& topo,
                                     std::size_t requested, bool sampled) {
  std::size_t domains = std::max<std::size_t>(1, requested);
  domains = std::min(domains, topo.partition_count);
  if (domains == 1 || sampled) return 1;
  const auto domain_of = [&](std::uint32_t node) {
    return topo.nodes[node].partition * domains / topo.partition_count;
  };
  for (const TopologyPlan::EdgeSpec& edge : topo.edges) {
    if (domain_of(edge.a) != domain_of(edge.b) &&
        edge.propagation <= Duration::zero()) {
      return 1;
    }
  }
  return domains;
}

FluidBackground::FluidBackground(
    const FluidBackgroundConfig& config, const TopologyPlan& topo,
    const BuiltTopology& built, sim::Network& net,
    const std::vector<bool>& in_zone,
    const std::vector<std::size_t>& domain_of_node,
    const std::function<sim::Simulator&(std::size_t)>& sim_of)
    : packet_rng_(derive_stream_seed(config.seed, 0xBEEF)) {
  validate(config);
  const std::size_t hosts = topo.hosts.size();
  const auto host_node = [&](std::size_t h) {
    return built.nodes[topo.hosts[h]];
  };
  // Pair index src * hosts + dst -> its route, zone verdict and interned
  // RouteId, each found the first time the pair is needed.
  struct Pair {
    std::vector<std::uint32_t> uids;  // empty until first drawn
    bool packetized = false;
    std::optional<sim::FlowTable::RouteId> route;
  };
  std::vector<Pair> pairs(hosts * hosts);
  // Flow f's host pair is the f-th draw of one seeded stream; both passes
  // replay it, so no per-flow state is kept between them.
  const std::uint64_t pair_seed = derive_stream_seed(config.seed, 0xB6);
  const auto draw = [hosts](SplitMix64& stream) {
    const std::size_t si = stream.next() % hosts;
    std::size_t di = stream.next() % hosts;
    while (di == si) di = stream.next() % hosts;
    return si * hosts + di;
  };

  // Pass 1: per-link duty-weighted traversal counts over all flows —
  // fluid and packetized alike load the fabric — for peak calibration.
  std::vector<double> unit_demand(net.link_count(), 0.0);
  std::size_t fluid_flows = 0;
  SplitMix64 stream(pair_seed);
  for (std::size_t f = 0; f < config.flows; ++f) {
    const std::size_t p = draw(stream);
    Pair& pair = pairs[p];
    if (pair.uids.empty()) {
      pair.uids = net.route_links(host_node(p / hosts), host_node(p % hosts));
      pair.packetized =
          !in_zone.empty() &&
          std::any_of(pair.uids.begin(), pair.uids.end(),
                      [&](std::uint32_t uid) { return in_zone[uid]; });
    }
    if (!pair.packetized) ++fluid_flows;
    for (const std::uint32_t uid : pair.uids) unit_demand[uid] += config.duty;
  }

  // Unit peaks would load link i at unit_demand[i] / capacity; scale so
  // the busiest link carries max_link_load.
  double peak = config.flow_peak.bps();
  if (peak <= 0.0) {
    double worst = 0.0;
    for (std::size_t i = 0; i < net.link_count(); ++i) {
      if (unit_demand[i] > 0.0) {
        worst = std::max(worst,
                         unit_demand[i] / net.link_at(i).config().rate.bps());
      }
    }
    peak = worst > 0.0 ? config.max_link_load / worst : 0.0;
  }

  // Pass 2: fluid flows into the table (zero events each; phases spread
  // evenly so FlowTable::rate_at queries desynchronize).  Packetized flows
  // run as Poisson sources at their mean rate (peak * duty), so the zone
  // sees real contention while its cost stays proportional to the zone's
  // traffic, not the population.
  table_.reserve(fluid_flows);
  const double mean_flow_bps = peak * config.duty;
  const double packet_bits =
      static_cast<double>(config.mean_packet.bit_count());
  std::uint32_t next_flow = 1;
  stream = SplitMix64(pair_seed);
  for (std::size_t f = 0; f < config.flows; ++f) {
    const std::size_t p = draw(stream);
    Pair& pair = pairs[p];
    if (pair.packetized) {
      ++packetized_;
      if (mean_flow_bps > 0.0) {
        const sim::NodeId src = host_node(p / hosts);
        sources_.push_back(std::make_unique<sim::PoissonSource>(
            sim_of(domain_of_node[src]), net, src, host_node(p % hosts),
            next_flow++, sim::PacketKind::kBulk, packet_rng_.split(),
            Duration::seconds(packet_bits / mean_flow_bps),
            config.mean_packet));
      }
      continue;
    }
    if (!pair.route) pair.route = table_.intern_route(pair.uids);
    const Duration phase = Duration::nanos(static_cast<std::int64_t>(
        (static_cast<double>(f) / static_cast<double>(config.flows)) *
        static_cast<double>(config.period.count_nanos())));
    table_.add_flow(f, *pair.route, Bandwidth::bps(peak),
                    static_cast<float>(config.duty), config.period, phase);
  }

  // Per-link fluid demand -> aggregates.  With envelope modulation the
  // demand arrives as a K-state FluidFlow (stationary mean == demand)
  // instead of a constant base rate — the only event source a fluid link
  // has, O(1) per link.
  aggregates_.resize(net.link_count());
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    const Bandwidth demand = table_.link_demand(static_cast<std::uint32_t>(i));
    if (!demand.is_positive()) continue;
    sim::Link& link = net.link_at(i);
    sim::Simulator& link_sim = sim_of(domain_of_node[net.link_source(i)]);
    sim::FluidAggregateConfig aggregate;
    aggregate.capacity = link.config().rate;
    aggregate.queue_model = config.queue_model;
    aggregate.mean_packet = config.mean_packet;
    aggregates_[i] = std::make_unique<sim::FluidAggregate>(
        link_sim, aggregate, Rng(derive_stream_seed(config.seed ^ 0xF1u, i)));
    link.attach_fluid(*aggregates_[i]);
    if (config.envelope_states >= 2) {
      envelopes_.push_back(std::make_unique<sim::FluidFlow>(
          link_sim,
          sim::FluidFlowConfig::envelope(demand, config.envelope_states,
                                         config.envelope_swing,
                                         config.envelope_mean_holding),
          Rng(derive_stream_seed(config.seed ^ 0xE2u, i))));
      envelopes_.back()->attach(*aggregates_[i]);
    } else {
      aggregates_[i]->add_base_rate(demand);
    }
  }
}

void FluidBackground::start() {
  for (auto& envelope : envelopes_) envelope->start(Duration::zero());
  for (auto& source : sources_) {
    source->start(Duration::millis(packet_rng_.uniform(0.0, 100.0)));
  }
}

}  // namespace bolot::scenario::detail

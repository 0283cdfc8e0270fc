#include "scenario/build.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include <malloc.h>  // malloc_trim (glibc)

namespace bolot::scenario::detail {

namespace {

/// Per-series sample budget before decimation; even (see
/// obs::TimeSeries::check_budget).
constexpr std::size_t kObsSeriesBudget = 16384;
/// Packet size of background traffic: the packetized zone's Poisson
/// sources and the M/D/1 moments of the fluid links' displaced traffic.
constexpr ByteSize kBackgroundPacket = ByteSize::bytes(512);

/// The one PDES domain clamp (see the ScenarioBuild constructor).
std::size_t clamp_domains(const TopologyPlan& plan, std::size_t requested,
                          bool sampled) {
  std::size_t domains = std::max<std::size_t>(1, requested);
  domains = std::min(domains, plan.partition_count);
  if (domains == 1 || sampled) return 1;
  const auto domain_of = [&](std::uint32_t node) {
    return plan.nodes[node].partition * domains / plan.partition_count;
  };
  for (const TopologyPlan::EdgeSpec& edge : plan.edges) {
    if (domain_of(edge.a) != domain_of(edge.b) &&
        edge.link.propagation <= Duration::zero()) {
      return 1;
    }
  }
  return domains;
}

/// Every comparison with NaN is false, so a NaN field would otherwise pass
/// the downstream range checks and reach every aggregate as a plausible
/// wrong answer.
void validate(const FluidBackgroundConfig& c) {
  const std::pair<bool, const char*> checks[] = {
      {c.duty >= 0.0 && c.duty <= 1.0, "duty outside [0, 1]"},
      {c.max_link_load > 0.0 && c.max_link_load <= 1.0,
       "max_link_load outside (0, 1]"},
      {c.envelope_states != 1,
       "envelope_states must be 0 (unmodulated) or at least 2"},
  };
  for (const auto& [ok, what] : checks) {
    if (!ok) {
      throw std::invalid_argument(std::string("FluidBackgroundConfig: ") +
                                  what);
    }
  }
}

/// Per link i, `addend` added counts[i] times to 0.0, rounding after each
/// addition: the sum a flow-order fold reaches when every flow adds the
/// same value, whatever the order.  `counts[i] * addend` rounds once and
/// can differ.  Every link's chain of additions is a prefix of the same
/// one sequence, so it runs once, to the largest count, and each link
/// reads the partial sum at its own count (in ascending count order).
std::vector<double> repeated_sums(double addend,
                                  const std::vector<std::size_t>& counts) {
  std::vector<std::size_t> order(counts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return counts[a] < counts[b];
  });
  std::vector<double> sums(counts.size());
  double sum = 0.0;
  std::size_t added = 0;
  for (const std::size_t i : order) {
    for (; added < counts[i]; ++added) sum += addend;
    sums[i] = sum;
  }
  return sums;
}

sim::ProbeSourceConfig probe_config(const ProbePlan& plan,
                                    Duration clock_tick) {
  sim::ProbeSourceConfig config;
  config.delta = plan.delta;
  config.probe_wire = plan.probe_wire;
  config.probe_count = plan.probe_count();
  if (clock_tick != Duration::zero()) config.clock_tick = clock_tick;
  return config;
}

}  // namespace

void reject_foreign_overrides(const ScenarioOverrides& o, bool chain) {
  struct Field {
    bool set;
    const char* name;
    bool chain_only;
  };
  const Field fields[] = {
      {o.bottleneck_buffer_packets.has_value(), "bottleneck_buffer_packets",
       true},
      {o.bottleneck_red.has_value(), "bottleneck_red", true},
      {o.faulty_interface_drop.has_value(), "faulty_interface_drop", true},
      {o.cross_traffic.has_value(), "cross_traffic", true},
      {o.bottleneck_channel.has_value(), "bottleneck_channel", true},
      {o.obs_sample_interval.has_value(), "obs_sample_interval", true},
      {o.topology.has_value(), "topology", false},
      {o.fluid_background.has_value(), "fluid_background", false},
      {o.packetize_radius.has_value(), "packetize_radius", false},
  };
  for (const Field& field : fields) {
    if (field.set && field.chain_only != chain) {
      throw std::invalid_argument(
          std::string(chain ? "chain scenario: " : "run_topology: ") +
          field.name +
          (chain ? " is a run_topology override"
                 : " is a chain-scenario override"));
    }
  }
}

ScenarioBuild::ScenarioBuild(const TopologyPlan& plan, std::size_t requested,
                             bool sampled, std::uint64_t seed)
    : plan_(plan),
      domains_(clamp_domains(plan, requested, sampled)),
      // Only the Simulator& each object binds to depends on the kernel, so
      // the rng split order — every random stream — does not.
      net_(domains_ > 1 ? psim_.emplace(domains_).simulator(0)
                        : seq_.emplace(),
           seed),
      built_(instantiate_topology(
          plan, net_, domains_,
          [this](std::size_t d) -> sim::Simulator& { return sim_of(d); })) {
  net_.compute_routes();
}

FluidBackground::FluidBackground(const FluidBackgroundConfig& config,
                                 ScenarioBuild& build,
                                 const std::vector<bool>& in_zone)
    : packet_rng_(derive_stream_seed(config.seed, 0xBEEF)) {
  validate(config);
  const TopologyPlan& topo = build.plan();
  sim::Network& net = build.net();
  const std::size_t hosts = topo.hosts.size();
  const std::size_t links = net.link_count();
  // Flow f's host pair (index src * hosts + dst) is the f-th draw of one
  // seeded stream; both passes replay it, so no per-flow state is kept.
  const std::uint64_t pair_seed = derive_stream_seed(config.seed, 0xB6);
  const auto draw = [hosts](SplitMix64& stream) {
    const std::size_t si = stream.next() % hosts;
    std::size_t di = stream.next() % hosts;
    while (di == si) di = stream.next() % hosts;
    return si * hosts + di;
  };

  // Pass 1: flows per host pair.
  std::vector<std::size_t> pair_flows(hosts * hosts, 0);
  SplitMix64 stream(pair_seed);
  for (std::size_t f = 0; f < config.flows; ++f) ++pair_flows[draw(stream)];

  // Route each drawn pair once, and count link crossings over all flows —
  // fluid and packetized alike load the fabric — for peak calibration,
  // and over fluid flows for demand.  A route never repeats a link
  // (Network::route_links throws on a loop), so a flow crosses a link at
  // most once.
  std::vector<bool> packetized_pair(pair_flows.size(), false);
  std::vector<std::size_t> crossings(links, 0);
  std::vector<std::size_t> fluid_crossings(links, 0);
  for (std::size_t p = 0; p < pair_flows.size(); ++p) {
    const std::size_t n = pair_flows[p];
    if (n == 0) continue;
    const std::vector<std::uint32_t> uids =
        net.route_links(topo.hosts[p / hosts], topo.hosts[p % hosts]);
    packetized_pair[p] =
        !in_zone.empty() && std::any_of(uids.begin(), uids.end(),
                                        [&](std::uint32_t uid) {
                                          return in_zone[uid];
                                        });
    (packetized_pair[p] ? packetized_ : fluid_flows_) += n;
    for (const std::uint32_t uid : uids) {
      crossings[uid] += n;
      if (!packetized_pair[p]) fluid_crossings[uid] += n;
    }
  }

  // Unit peaks would load link i at duty per crossing over its capacity;
  // scale so the busiest link carries max_link_load.
  const std::vector<double> unit_demand =
      repeated_sums(config.duty, crossings);
  double worst = 0.0;
  for (std::size_t i = 0; i < links; ++i) {
    if (unit_demand[i] > 0.0) {
      worst = std::max(worst,
                       unit_demand[i] / net.link_at(i).config().rate.bps());
    }
  }
  const double peak = worst > 0.0 ? config.max_link_load / worst : 0.0;

  // A fluid flow folds to its mean rate with peak and duty each held at
  // float precision; every link it crosses gets that one addend.
  const float fluid_peak = static_cast<float>(peak);
  if (!std::isfinite(fluid_peak)) {
    throw std::invalid_argument(
        "FluidBackgroundConfig: duty calibrates a flow peak past float "
        "range");
  }
  const double flow_demand = static_cast<double>(fluid_peak) *
                             static_cast<double>(static_cast<float>(config.duty));
  link_demand_bps_ = repeated_sums(flow_demand, fluid_crossings);

  // Pass 2, only when there are packet sources to build: packetized flows
  // run as Poisson sources at their mean rate (peak * duty), so the zone
  // sees real contention while its cost stays proportional to the zone's
  // traffic, not the population.  Flow order fixes their flow ids and rng
  // splits.
  const double mean_flow_bps = peak * config.duty;
  if (packetized_ > 0 && mean_flow_bps > 0.0) {
    const double packet_bits =
        static_cast<double>(kBackgroundPacket.bit_count());
    sources_.reserve(packetized_);
    std::uint32_t next_flow = 1;
    stream = SplitMix64(pair_seed);
    for (std::size_t f = 0; f < config.flows; ++f) {
      const std::size_t p = draw(stream);
      if (!packetized_pair[p]) continue;
      const sim::NodeId src = topo.hosts[p / hosts];
      sources_.push_back(std::make_unique<sim::PoissonSource>(
          build.sim_for(src), net, src, topo.hosts[p % hosts], next_flow++,
          sim::PacketKind::kBulk, packet_rng_.split(),
          Duration::seconds(packet_bits / mean_flow_bps), kBackgroundPacket));
    }
  }

  // Per-link fluid demand -> aggregates.  With envelope modulation the
  // demand arrives as a K-state FluidFlow (stationary mean == demand)
  // instead of a constant base rate — the only event source a fluid link
  // has, O(1) per link.
  aggregates_.resize(links);
  for (std::size_t i = 0; i < links; ++i) {
    const Bandwidth demand = Bandwidth::bps(link_demand_bps_[i]);
    if (!demand.is_positive()) continue;
    sim::Link& link = net.link_at(i);
    sim::Simulator& link_sim = build.sim_for(net.link_source(i));
    sim::FluidAggregateConfig aggregate;
    aggregate.capacity = link.config().rate;
    aggregate.queue_model = config.queue_model;
    aggregate.mean_packet = kBackgroundPacket;
    aggregates_[i] = std::make_unique<sim::FluidAggregate>(
        link_sim, aggregate, Rng(derive_stream_seed(config.seed ^ 0xF1u, i)));
    link.attach_fluid(*aggregates_[i]);
    if (config.envelope_states >= 2) {
      envelopes_.push_back(std::make_unique<sim::FluidFlow>(
          link_sim, demand, config.envelope_states,
          config.envelope_mean_holding,
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

ProbedRun::ProbedRun(ScenarioBuild& build, const ProbePlan& plan,
                     Duration clock_tick, sim::NodeId src, sim::NodeId dst,
                     const ScenarioOverrides& overrides)
    : build_(build),
      duration_(plan.duration),
      src_(src),
      dst_(dst),
      echo_(build.sim_for(dst), build.net(), dst),
      probe_(build.sim_for(src), build.net(), src, dst,
             probe_config(plan, clock_tick)) {
  // No sampler unless asked for: default runs schedule no sample events.
  if (overrides.obs_sample_interval) {
    sampler_.emplace(build.sim_for(src), *overrides.obs_sample_interval,
                     kObsSeriesBudget);
  }
}

ScenarioResult ProbedRun::run(const std::function<void()>& start_background,
                              const sim::Link& fwd, const sim::Link& rev) {
  // The probe trace is one block of probe_count records, written as the
  // run goes.  Free pages go back to the OS first: in a process that runs
  // scenarios back to back, a block an earlier run freed stays resident
  // whenever the allocator places the new one elsewhere, and the peak
  // resident set then depends on where it lands.
  malloc_trim(0);
  build_.finish();
  start_background();
  probe_.start(kWarmup);
  if (sampler_) sampler_->start(kWarmup);
  const Duration end = kWarmup + duration_ + kDrain;
  build_.run_until(end);
  if (sampler_) sampler_->stop();

  const sim::Network& net = build_.net();
  ScenarioResult result;
  result.trace = probe_.take_trace();
  result.route = net.traceroute(src_, dst_);
  result.bottleneck_forward = fwd.stats();
  result.bottleneck_reverse = rev.stats();
  result.total_overflow_drops = net.total_overflow_drops();
  result.total_random_drops = net.total_random_drops();
  result.total_channel_drops = net.total_channel_drops();
  result.hop_deliveries = net.total_delivered();
  result.simulated = end;
  result.events = build_.events();
  result.domains_used = build_.domains();
  if (sampler_) {
    result.metrics = registry_.snapshot(build_.sim_for(src_).now());
    result.series = sampler_->snapshot();
  }
  return result;
}

}  // namespace bolot::scenario::detail

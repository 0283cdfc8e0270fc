#include "scenario/build.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include <malloc.h>  // malloc_trim (glibc)

namespace bolot::scenario::detail {

namespace {

/// Per-series sample budget before decimation; even (see
/// obs::TimeSeries::check_budget).
constexpr std::size_t kObsSeriesBudget = 16384;

constexpr double kFlowDuty = 0.5;  // share of time a background flow is on
constexpr Duration kEnvelopeMeanHolding = Duration::seconds(2);  // per state

/// Every comparison with NaN is false, so a NaN field would otherwise pass
/// the downstream range checks and reach every aggregate as a plausible
/// wrong answer.
void validate(const FluidBackgroundConfig& c) {
  const std::pair<bool, const char*> checks[] = {
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

/// Checks the plan before probe_count() divides by delta: neither an
/// infinite nor a negative quotient converts to a probe count.
sim::ProbeSourceConfig probe_config(const ProbePlan& plan,
                                    Duration clock_tick) {
  if (!(plan.delta > Duration::zero())) {
    throw std::invalid_argument("ProbePlan: delta must be positive");
  }
  if (plan.duration < Duration::zero()) {
    throw std::invalid_argument("ProbePlan: duration must not be negative");
  }
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

ScenarioBuild::ScenarioBuild(const TopologyPlan& plan, std::uint64_t seed,
                             std::size_t requested)
    : plan_(plan),
      domains_(std::min(std::max<std::size_t>(1, requested),
                         plan.partition_count)),
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
        std::any_of(uids.begin(), uids.end(),
                    [&](std::uint32_t uid) { return in_zone[uid]; });
    (packetized_pair[p] ? packetized_ : fluid_flows_) += n;
    for (const std::uint32_t uid : uids) {
      crossings[uid] += n;
      if (!packetized_pair[p]) fluid_crossings[uid] += n;
    }
  }

  // Unit peaks would load link i at duty per crossing over its capacity;
  // scale so the busiest link carries max_link_load.
  double worst = 0.0;
  for (std::size_t i = 0; i < links; ++i) {
    const double unit_demand = static_cast<double>(crossings[i]) * kFlowDuty;
    if (unit_demand > 0.0) {
      worst = std::max(worst,
                       unit_demand / net.link_at(i).config().rate.bps());
    }
  }
  const double peak = worst > 0.0 ? config.max_link_load / worst : 0.0;

  // A fluid flow folds to its mean rate with its peak held at float
  // precision (at most 2 * max_link_load * 100 Mb/s at the generator's
  // tier rates); every link it crosses gets that one addend.  It has at
  // most 24 significant bits, so below 2^29 flows count x addend is the
  // exact sum of one addend per flow (MODEL_NOTES §15).
  const double flow_demand =
      static_cast<double>(static_cast<float>(peak)) * kFlowDuty;
  link_demand_bps_.resize(links);
  for (std::size_t i = 0; i < links; ++i) {
    link_demand_bps_[i] = static_cast<double>(fluid_crossings[i]) * flow_demand;
  }

  // Pass 2, only when there are packet sources to build: packetized flows
  // run as Poisson sources at their mean rate (peak * duty), so the zone
  // sees real contention while its cost stays proportional to the zone's
  // traffic, not the population.  Flow order fixes their flow ids and rng
  // splits.
  const double mean_flow_bps = peak * kFlowDuty;
  if (packetized_ > 0 && mean_flow_bps > 0.0) {
    const double packet_bits =
        static_cast<double>(sim::kBackgroundPacket.bit_count());
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
          Duration::seconds(packet_bits / mean_flow_bps),
          sim::kBackgroundPacket));
    }
  }

  // Per-link fluid demand -> each link's aggregate.  With envelope
  // modulation the demand is a K-state envelope (stationary mean ==
  // demand) instead of a constant — the only event source a fluid link
  // has, O(1) per link, its first edge scheduled here at time zero.
  for (std::size_t i = 0; i < links; ++i) {
    const Bandwidth demand = Bandwidth::bps(link_demand_bps_[i]);
    if (!demand.is_positive()) continue;
    net.link_at(i).attach_fluid(
        demand, config.envelope_states, kEnvelopeMeanHolding,
        Rng(derive_stream_seed(config.seed ^ 0xF1u, i)),
        Rng(derive_stream_seed(config.seed ^ 0xE2u, i)));
  }
}

void FluidBackground::start() {
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
  if (sampler_) {
    result.metrics = registry_.snapshot(build_.sim_for(src_).now());
    result.series = sampler_->snapshot();
  }
  return result;
}

}  // namespace bolot::scenario::detail

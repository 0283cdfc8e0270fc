#include "scenario/scenarios.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "nettime/clock.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "scenario/build.h"
#include "sim/traffic.h"

namespace bolot::scenario {

namespace {

/// The pace a paced FTP session sustains while on, as a share of the
/// bottleneck.
constexpr double kSessionPace = 0.95;
/// Reverse-direction multiplier on every cross-traffic load.
constexpr double kReverseScale = 0.35;

/// One of the paper's measured paths: hop i joins route node i to node
/// i + 1 and carries that direction's LinkConfig (path_plan names it).
struct PathSpec {
  std::vector<std::string> names;        // path nodes, source first
  std::vector<sim::LinkConfig> hops;     // names.size() - 1 entries
  std::size_t bottleneck_hop;            // index into hops
  std::vector<std::size_t> faulty_hops;  // faulty_interface_drop targets
  Duration clock_tick;                   // source clock; zero = exact
  CrossTraffic cross;                    // the path's default mix
};

sim::LinkConfig hop(Bandwidth rate, Duration propagation,
                    std::size_t buffer_packets,
                    Probability random_drop = Probability::zero()) {
  sim::LinkConfig link;
  link.rate = rate;
  link.propagation = propagation;
  link.buffer_packets = buffer_packets;
  link.random_drop_probability = random_drop;
  return link;
}

void apply_overrides(PathSpec& path, const ScenarioOverrides& o) {
  sim::LinkConfig& bottleneck = path.hops[path.bottleneck_hop];
  if (o.bottleneck_buffer_packets) {
    bottleneck.buffer_packets = *o.bottleneck_buffer_packets;
  }
  if (o.bottleneck_red) bottleneck.red = o.bottleneck_red;
  if (o.bottleneck_channel) bottleneck.channel = o.bottleneck_channel;
  if (o.faulty_interface_drop) {
    for (const std::size_t h : path.faulty_hops) {
      path.hops[h].random_drop_probability = *o.faulty_interface_drop;
    }
  }
  if (o.clock_tick) path.clock_tick = *o.clock_tick;
  if (o.cross_traffic) path.cross = *o.cross_traffic;
}

/// A negative load would build no source, exactly like a zero one, so it
/// is rejected rather than run as "no traffic".  A non-finite burst length
/// would reach the burst-gap arithmetic as an undefined double-to-integer
/// cast, so it is rejected here, by name, before any source is built.
void check_cross_traffic(const CrossTraffic& cross) {
  const std::tuple<double, double, const char*> fields[] = {
      {cross.session_load, 0.0,
       "chain scenario: cross_traffic.session_load must be finite and >= 0"},
      {cross.bulk_load, 0.0,
       "chain scenario: cross_traffic.bulk_load must be finite and >= 0"},
      {cross.interactive_load, 0.0,
       "chain scenario: cross_traffic.interactive_load must be finite and "
       ">= 0"},
      {cross.mean_burst_packets, 1.0,
       "chain scenario: cross_traffic.mean_burst_packets must be finite and "
       ">= 1"},
  };
  for (const auto& [value, lowest, error] : fields) {
    if (!std::isfinite(value) || value < lowest) {
      throw std::invalid_argument(error);
    }
  }
}

/// The path as a plan.  Two cross-traffic hosts hang off the bottleneck's
/// routers via fast access links, so their packets traverse exactly the
/// bottleneck.  Edges: the hops, then the two access links.
TopologyPlan path_plan(const PathSpec& path) {
  const std::uint32_t n = static_cast<std::uint32_t>(path.names.size());
  const std::uint32_t up = static_cast<std::uint32_t>(path.bottleneck_hop);
  TopologyPlan plan;
  for (const std::string& name : path.names) plan.nodes.push_back({name});
  plan.nodes.push_back({"cross-host-upstream"});
  plan.nodes.push_back({"cross-host-downstream"});
  for (std::uint32_t h = 0; h + 1 < n; ++h) {
    plan.edges.push_back({h, h + 1, path.hops[h]});
    plan.edges.back().link.name = path.names[h] + "->" + path.names[h + 1];
  }
  sim::LinkConfig access;
  access.name = "cross-access";
  access.rate =
      Bandwidth::bps(std::max(10e6, path.hops[up].rate.bps() * 10.0));
  access.propagation = Duration::micros(100);
  access.buffer_packets = 2000;
  plan.edges.push_back({n, up, access});
  plan.edges.push_back({n + 1, up + 1, access});
  return plan;
}

ScenarioResult run_chain(PathSpec path, const ProbePlan& plan,
                         const ScenarioOverrides& overrides) {
  TRACE_SCOPE("scenario.run_chain");
  detail::reject_foreign_overrides(overrides, /*chain=*/true);
  apply_overrides(path, overrides);
  check_cross_traffic(path.cross);
  const TopologyPlan topo = path_plan(path);
  detail::ScenarioBuild build(topo, plan.seed);
  sim::Network& net = build.net();
  const sim::NodeId host_up = static_cast<sim::NodeId>(path.names.size());
  const Bandwidth mu = path.hops[path.bottleneck_hop].rate;
  const Bandwidth access_rate = topo.edges.back().link.rate;
  const CrossTraffic& cross = path.cross;

  Rng rng(plan.seed ^ 0xC0FFEE);
  std::vector<std::unique_ptr<sim::TrafficSource>> sources;
  std::uint32_t next_flow = 1;

  const auto add_direction = [&](sim::NodeId from, sim::NodeId to,
                                 double scale) {
    sim::Simulator& src_sim = build.sim_for(from);
    const double session_bps = cross.session_load * mu.bps() * scale;
    if (session_bps > 0.0) {
      sim::FtpSessionConfig session;
      session.mean_session = cross.mean_session;
      session.pace_load = kSessionPace;
      session.bottleneck = mu;
      session.packet = cross.bulk_packet;
      // mean_idle chosen so the long-run average share is session_load:
      // on_fraction = session_load * scale / kSessionPace.
      const double on_fraction =
          std::min(0.95, cross.session_load * scale / kSessionPace);
      session.mean_idle =
          cross.mean_session * ((1.0 - on_fraction) / on_fraction);
      sources.push_back(std::make_unique<sim::FtpSessionSource>(
          src_sim, net, from, to, next_flow++, sim::PacketKind::kBulk,
          rng.split(), session));
    }
    const double bulk_bps = cross.bulk_load * mu.bps() * scale;
    if (bulk_bps > 0.0) {
      const double burst_bits =
          cross.mean_burst_packets *
          static_cast<double>(cross.bulk_packet.bit_count());
      sim::BurstConfig burst;
      burst.mean_burst_gap = Duration::seconds(burst_bits / bulk_bps);
      burst.mean_burst_packets = cross.mean_burst_packets;
      burst.packet = cross.bulk_packet;
      // Bursts are clocked out at the access rate, i.e. effectively
      // back-to-back as seen by the (much slower) bottleneck.
      burst.in_burst_spacing = access_rate.transmission_time(
          cross.bulk_packet);
      sources.push_back(std::make_unique<sim::BurstSource>(
          src_sim, net, from, to, next_flow++, sim::PacketKind::kBulk,
          rng.split(), burst));
    }
    const double interactive_bps = cross.interactive_load * mu.bps() * scale;
    if (interactive_bps > 0.0) {
      const double pkt_bits =
          static_cast<double>(cross.interactive_packet.bit_count());
      sources.push_back(std::make_unique<sim::PoissonSource>(
          src_sim, net, from, to, next_flow++,
          sim::PacketKind::kInteractive, rng.split(),
          Duration::seconds(pkt_bits / interactive_bps),
          cross.interactive_packet));
    }
  };
  add_direction(host_up, host_up + 1, 1.0);
  add_direction(host_up + 1, host_up, kReverseScale);

  // NetDyn endpoints: source at the head of the chain, echo at the tail.
  detail::ProbedRun run(build, plan, path.clock_tick, 0,
                        static_cast<sim::NodeId>(path.names.size() - 1),
                        overrides);
  // Hop h is plan edge h, which instantiate_topology adds as the links
  // 2h (forward) and 2h + 1 (reverse).
  sim::Link& bneck_fwd = net.link_at(2 * path.bottleneck_hop);
  sim::Link& bneck_rev = net.link_at(2 * path.bottleneck_hop + 1);
  if (obs::Sampler* sampler = run.sampler()) {
    // Both directions of a duplex link share one config name; publish
    // them under stable direction-qualified prefixes so sweeps can be
    // diffed across scenarios.
    bneck_fwd.publish_metrics(run.registry(), "bneck.fwd");
    bneck_rev.publish_metrics(run.registry(), "bneck.rev");
    run.probe().publish_metrics(run.registry());
    obs::watch_queue_packets(*sampler, bneck_fwd);
    obs::watch_backlog_work_ms(*sampler, bneck_fwd);
    obs::watch_utilization(*sampler, bneck_fwd);
    obs::watch_probe_rtt_ms(*sampler, run.probe());
  }

  return run.run(
      [&] {
        for (auto& source : sources) {
          // Stagger starts so sources do not phase-lock on the first event.
          source->start(Duration::millis(rng.uniform(0.0, 100.0)));
        }
      },
      bneck_fwd, bneck_rev);
}

PathSpec inria_umd_path() {
  // Rates/propagations chosen so the fixed round-trip delay is ~140 ms
  // (Fig. 2) with the 128 kb/s transatlantic hop as bottleneck (Table 1).
  // The SURAnet hops carry the faulty interface cards.
  return {inria_umd_route_names(),
          {
              hop(Bandwidth::bps(10e6), Duration::millis(0.2), 100),    // tom -> t8-gw
              hop(Bandwidth::bps(10e6), Duration::millis(0.3), 100),    // t8-gw -> sophia-gw
              hop(Bandwidth::bps(2e6), Duration::millis(1.0), 80),      // sophia-gw -> icm-sophia
              hop(Bandwidth::bps(128e3), Duration::millis(52.0), 14),   // transatlantic (bottleneck)
              hop(Bandwidth::bps(45e6), Duration::millis(0.1), 200),    // Ithaca NSS internal
              hop(Bandwidth::bps(1.544e6), Duration::millis(8.0), 60),  // NSS -> SURAnet
              hop(Bandwidth::bps(1.544e6), Duration::millis(2.0), 60, Probability::checked(0.011)),  // SURAnet (faulty card)
              hop(Bandwidth::bps(10e6), Duration::millis(0.3), 100, Probability::checked(0.011)),    // SURAnet -> UMd (faulty)
              hop(Bandwidth::bps(10e6), Duration::millis(0.2), 100),    // UMd campus
          },
          /*bottleneck_hop=*/3,
          /*faulty_hops=*/{6, 7},
          kDecstationTick,  // DECstation 5000
          kInriaUmdCrossTraffic};
}

PathSpec umd_pitt_path() {
  // The T3 backbone is fast; the Pittsburgh campus Ethernet is the
  // bottleneck ("very likely that the bottleneck bandwidth is much higher
  // than ... 128 kb/s").  Fixed RTT ~ 25 ms.
  return {umd_pitt_route_names(),
          {
              hop(Bandwidth::bps(10e6), Duration::millis(0.2), 100),  // lena -> avw1hub
              hop(Bandwidth::bps(10e6), Duration::millis(0.2), 100),  // avw1hub -> csc2hub
              hop(Bandwidth::bps(10e6), Duration::millis(0.3), 100),  // csc2hub -> 192.221.38.5
              hop(Bandwidth::bps(45e6), Duration::millis(0.5), 200),  // -> enss136
              hop(Bandwidth::bps(45e6), Duration::millis(1.0), 200),  // -> DC cnss58
              hop(Bandwidth::bps(45e6), Duration::millis(0.3), 200),  // -> DC cnss56
              hop(Bandwidth::bps(45e6), Duration::millis(2.5), 200),  // -> New York cnss32
              hop(Bandwidth::bps(45e6), Duration::millis(4.0), 200),  // -> Cleveland cnss40
              hop(Bandwidth::bps(45e6), Duration::millis(0.3), 200),  // -> Cleveland cnss41
              hop(Bandwidth::bps(45e6), Duration::millis(1.5), 200),  // -> enss132
              hop(Bandwidth::bps(10e6), Duration::millis(0.5), 60),   // -> externals.gw.pitt.edu
              hop(Bandwidth::bps(10e6), Duration::millis(0.3), 60),   // -> 136.142.2.54 (bottleneck)
              hop(Bandwidth::bps(10e6), Duration::millis(0.2), 60),   // -> hub-eh.gw.pitt.edu
          },
          /*bottleneck_hop=*/11,
          /*faulty_hops=*/{10},
          kUmdPittClockTick,
          kUmdPittCrossTraffic};
}

PathSpec inria_europe_path() {
  // Six hops inside Europe; the 2 Mb/s national backbone segment is the
  // bottleneck.  Fixed RTT ~ 45 ms.
  return {inria_europe_route_names(),
          {
              hop(Bandwidth::bps(10e6), Duration::millis(0.3), 100),  // tom -> t8-gw
              hop(Bandwidth::bps(10e6), Duration::millis(0.5), 100),  // t8-gw -> sophia-gw
              hop(Bandwidth::bps(2e6), Duration::millis(8.0), 30),    // national backbone (bneck)
              hop(Bandwidth::bps(2e6), Duration::millis(9.0), 60, Probability::checked(0.004)),  // cross-border segment
              hop(Bandwidth::bps(10e6), Duration::millis(2.0), 100),  // destination campus
          },
          /*bottleneck_hop=*/2,
          /*faulty_hops=*/{3},
          kDecstationTick,  // same INRIA source host
          kInriaEuropeCrossTraffic};
}

}  // namespace

const std::vector<std::string>& inria_umd_route_names() {
  static const std::vector<std::string> names = {
      "tom.inria.fr",          "t8-gw.inria.fr",
      "sophia-gw.atlantic.fr", "icm-sophia.icp.net",
      "Ithaca.NY.NSS.NSF.NET", "Ithaca1.NY.NSS.NSF.NET",
      "nss-SURA-eth.sura.net", "sura8-umd-c1.sura.net",
      "csc2hub-gw.umd.edu",    "avwhub-gw.umd.edu",
  };
  return names;
}

const std::vector<std::string>& inria_europe_route_names() {
  static const std::vector<std::string> names = {
      "tom.inria.fr",        "t8-gw.inria.fr", "sophia-gw.atlantic.fr",
      "paris-gw.renater.fr", "geneva-gw.switch.ch",
      "ezinfo.ethz.ch",
  };
  return names;
}

const std::vector<std::string>& umd_pitt_route_names() {
  static const std::vector<std::string> names = {
      "lena.cs.umd.edu",
      "avw1hub-gw.umd.edu",
      "csc2hub-gw.umd.edu",
      "192.221.38.5",
      "en-0.enss136.t3.nsf.net",
      "t3-1.Washington-DC-cnss58.t3.ans.net",
      "t3-3.Washington-DC-cnss56.t3.ans.net",
      "t3-0.New-York-cnss32.t3.ans.net",
      "t3-1.Cleveland-cnss40.t3.ans.net",
      "t3-0.Cleveland-cnss41.t3.ans.net",
      "t3-0.enss132.t3.ans.net",
      "externals.gw.pitt.edu",
      "136.142.2.54",
      "hub-eh.gw.pitt.edu",
  };
  return names;
}

ScenarioResult run_inria_umd(const ProbePlan& plan,
                             const ScenarioOverrides& overrides) {
  return run_chain(inria_umd_path(), plan, overrides);
}

ScenarioResult run_umd_pitt(const ProbePlan& plan,
                            const ScenarioOverrides& overrides) {
  return run_chain(umd_pitt_path(), plan, overrides);
}

ScenarioResult run_inria_europe(const ProbePlan& plan,
                                const ScenarioOverrides& overrides) {
  return run_chain(inria_europe_path(), plan, overrides);
}

}  // namespace bolot::scenario

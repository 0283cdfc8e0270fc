// Canned experiment setups reproducing the paper's two measured paths:
//
//   * InriaUmd1992  — Table 1: ten hops from tom.inria.fr to the UMd echo
//     host, with the 128 kb/s transatlantic link (icm-sophia <-> Ithaca)
//     as bottleneck and a fixed round-trip delay of ~140 ms.  The source
//     clock is a DECstation 5000 (3.906 ms resolution).
//   * UmdPitt1993   — Table 2: fourteen hops UMd -> Pittsburgh over the
//     T3 backbone; the bottleneck is a campus 10 Mb/s Ethernet and the
//     source clock has ~3 ms resolution.
//
// Cross traffic ("the Internet stream") is a mix of bulk FTP-like bursts
// (512-byte packets) and interactive Telnet-like packets, injected at the
// bottleneck routers, matching the traffic mix the paper infers from its
// measurements.  The SURAnet segment carries the random-drop stage that
// models the faulty interface cards reported by Mishra & Sanghi.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/probe_trace.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "scenario/topology_gen.h"
#include "sim/channel.h"
#include "sim/fluid.h"
#include "sim/link.h"
#include "sim/network.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::scenario {

/// Probe-side parameters (what the operator of NetDyn chooses).
struct ProbePlan {
  Duration delta = Duration::millis(50);
  Duration duration = Duration::minutes(10);
  ByteSize probe_wire = ByteSize::bytes(72);  // 32-byte payload + UDP/IP hdrs
  std::uint64_t seed = 1993;

  std::uint64_t probe_count() const {
    return static_cast<std::uint64_t>(duration / delta);
  }
};

/// Cross-traffic intensity knobs, expressed as fractions of the bottleneck
/// bandwidth so the same structure scales across scenarios.
struct CrossTraffic {
  /// Paced FTP sessions (ack-clocked transfers filling the bottleneck
  /// while active, at 95 % of it): average share of bottleneck
  /// bandwidth.  These create the 0/1/2-packet per-interval workloads
  /// behind the paper's Fig.-8 peaks.
  double session_load = 0.25;
  Duration mean_session = Duration::seconds(8);
  /// Open-loop window bursts (slow-start, batch applications): share of
  /// bottleneck bandwidth and mean burst length.  These create the loss
  /// bursts behind Table 3's clp >> ulp at small delta.
  double bulk_load = 0.25;
  double mean_burst_packets = 8.0;
  /// Telnet-like share, forward.  The reverse direction carries 0.35
  /// times each forward load.
  double interactive_load = 0.10;
  ByteSize bulk_packet = ByteSize::bytes(512);
  ByteSize interactive_packet = ByteSize::bytes(64);
};

/// Background-traffic population for generated-topology runs
/// (run_topology): `flows` on/off flows between seeded random host pairs.
/// Flows whose route stays outside the packetized zone are folded into
/// per-link FluidAggregates (zero events per flow — see MODEL_NOTES §15);
/// flows that touch the zone become real packet sources.
struct FluidBackgroundConfig {
  std::size_t flows = 10000;
  /// On/off shape of each flow: the fraction of time on.  Only the mean
  /// (peak x duty) is modeled, so the cycle length is not a knob, and the
  /// peak is calibrated so the busiest link carries `max_link_load` of
  /// its capacity in mean background demand.
  double duty = 0.5;
  double max_link_load = 0.5;
  /// How fluid-served links model queueing (see sim::FluidQueueModel):
  /// kResidualRate drains probes at the residual capacity; kMd1Wait adds
  /// a sampled M/D/1 wait of 512-byte displaced packets that also
  /// matches delay variance.
  sim::FluidQueueModel queue_model = sim::FluidQueueModel::kResidualRate;
  /// Optional K-state envelope modulation of each fluid link's aggregate
  /// demand (0 = constant mean demand), swinging +-50 % around the mean.
  /// The envelope is the only event source a fluid link has: O(1) per
  /// link, independent of flow count.
  std::size_t envelope_states = 0;
  Duration envelope_mean_holding = Duration::seconds(2);
  std::uint64_t seed = 0xF10D;
};

/// Knobs for one run.  A knob marked "chain only" applies to the paper's
/// paths (run_inria_umd, run_umd_pitt, run_inria_europe) and run_topology
/// rejects it; the run_topology-only knobs at the end are rejected by the
/// chain scenarios.  Both throw std::invalid_argument naming the field.
struct ScenarioOverrides {
  /// Chain only: the bottleneck hop's buffer.
  std::optional<std::size_t> bottleneck_buffer_packets;
  /// Chain only: RED at the bottleneck (both directions) instead of
  /// drop-tail.
  std::optional<sim::RedConfig> bottleneck_red;
  /// Chain only: per direction of each faulty hop.
  std::optional<Probability> faulty_interface_drop;
  /// Chain only: replaces the path's default cross-traffic mix.
  std::optional<CrossTraffic> cross_traffic;
  /// Clock quantization at the source host; nullopt keeps the scenario's
  /// historically accurate tick, Duration::zero() disables quantization,
  /// and a negative tick throws std::invalid_argument.
  std::optional<Duration> clock_tick;
  /// Chain only: observability.  When set, the run attaches a
  /// MetricsRegistry and a Sampler at this interval — the bottleneck link
  /// (both directions) and the probe source publish metrics, and the
  /// standard series (queue packets, backlog work, utilization, probe
  /// rtt) are recorded — and the result carries the snapshot and series.
  /// Unset (the default), no observability object is even constructed,
  /// so default outputs are byte-identical.
  std::optional<Duration> obs_sample_interval;
  /// Chain only: Gilbert loss channel on the *forward* direction of the
  /// bottleneck link (probe direction; the reverse echo path stays ideal
  /// so measured loss attributes cleanly to the modeled channel).
  /// MODEL_NOTES §13.
  std::optional<sim::GilbertChannelConfig> bottleneck_channel;
  /// Shard the run across this many PDES domains (sim/pdes.h).  Both kinds
  /// of scenario clamp to their plan's TopologyPlan::partition_count: a
  /// chain's path length (path index = partition hint, so the path is cut
  /// into contiguous node blocks and cross-traffic hosts ride with their
  /// router), a generated fabric's pods or provider cores.  The event
  /// stream is that of the sequential kernel; see MODEL_NOTES §14.  Falls
  /// back to 1 when a cut hop would have zero lookahead or when
  /// obs_sample_interval is set (the sampler reads state across the
  /// whole topology).  Default 1 keeps every default output
  /// byte-identical to the sequential kernel.
  std::size_t domains = 1;
  /// --- run_topology only (rejected by the chain scenarios) ---
  /// Generated topology to probe instead of a historical path.
  std::optional<TopologySpec> topology;
  /// Background flow population riding the generated topology.
  std::optional<FluidBackgroundConfig> fluid_background;
  /// Hybrid fluid/packet split: links whose endpoints are all within
  /// this many hops of the probed path are the *packetized zone* —
  /// background flows touching any of them are instantiated as packet
  /// sources, everything else is folded into fluid aggregates.  0 means
  /// only the probed path's own links; nullopt (default) means no zone
  /// at all, i.e. every background flow is fluid.
  std::optional<std::size_t> packetize_radius;
};

struct ScenarioResult {
  analysis::ProbeTrace trace;
  std::vector<sim::TracerouteHop> route;        // source -> echo host
  sim::LinkStats bottleneck_forward;
  sim::LinkStats bottleneck_reverse;
  std::uint64_t total_overflow_drops = 0;
  std::uint64_t total_random_drops = 0;
  std::uint64_t total_channel_drops = 0;
  /// Per-link deliveries summed over every link (hop traversals).
  std::uint64_t hop_deliveries = 0;
  Duration simulated;
  std::uint64_t events = 0;
  /// Domains the run actually used after the fallback rules (see
  /// ScenarioOverrides::domains); 1 means the sequential kernel ran.
  std::size_t domains_used = 1;
  /// Filled only when ScenarioOverrides::obs_sample_interval is set.
  obs::MetricsSnapshot metrics;
  std::vector<obs::TimeSeries> series;
  /// run_topology only: how the background split between the fluid fold
  /// and real packet sources (fluid + packetized == configured flows).
  std::size_t background_flows_fluid = 0;
  std::size_t background_flows_packetized = 0;
  /// run_topology only: every directed link the probe's round trip
  /// crosses (the forward path, then the echo path as actually routed —
  /// min-hop tie-breaking need not mirror), with the mean fluid demand
  /// each carries.  Exactly what the KIA cross-check (model/kia.h) needs.
  struct ProbeHop {
    Bandwidth capacity = Bandwidth::zero();
    Duration propagation;
    Bandwidth fluid = Bandwidth::zero();
  };
  std::vector<ProbeHop> probe_hops;
};

/// Runs a NetDyn experiment over the INRIA -> UMd path of Table 1.
ScenarioResult run_inria_umd(const ProbePlan& plan,
                             const ScenarioOverrides& overrides = {});

/// Runs a NetDyn experiment over the UMd -> Pittsburgh path of Table 2.
ScenarioResult run_umd_pitt(const ProbePlan& plan,
                            const ScenarioOverrides& overrides = {});

/// Runs a NetDyn experiment over a generated topology
/// (overrides.topology is required): the probe travels between the
/// first and last generated host while overrides.fluid_background flows
/// load the fabric — fluid everywhere except the packetized zone around
/// the probed path (overrides.packetize_radius).  The per-run event cost
/// scales with probed/packetized packets, not with the background flow
/// count; see MODEL_NOTES §15 and
/// RunTopologyTest.FluidEventCountIsFlatInFlowCount.
ScenarioResult run_topology(const ProbePlan& plan,
                            const ScenarioOverrides& overrides);

/// A third path in the spirit of the paper's section 2 ("connections
/// between INRIA and universities in Europe"): a short intra-European
/// route with a 2 Mb/s national bottleneck.  Used to check the paper's
/// claim that the INRIA->UMd observations "essentially hold for the other
/// connections".
ScenarioResult run_inria_europe(const ProbePlan& plan,
                                const ScenarioOverrides& overrides = {});

/// The hop names of Table 1 / Table 2 (source first), for the route bench
/// and tests.
const std::vector<std::string>& inria_umd_route_names();
const std::vector<std::string>& umd_pitt_route_names();
const std::vector<std::string>& inria_europe_route_names();

/// Scenario constants, exposed for benches and tests.
inline constexpr Bandwidth kInriaUmdBottleneck = Bandwidth::kbps(128);
inline constexpr Duration kInriaUmdFixedRtt = Duration::millis(140);
inline constexpr Bandwidth kUmdPittBottleneck = Bandwidth::mbps(10);
inline constexpr Duration kUmdPittClockTick = Duration::millis(3);
/// Each path's default cross-traffic mix.  The INRIA-UMd path runs
/// CrossTraffic's defaults.  The Pittsburgh campus Ethernet carries full-MTU
/// packets and larger bursts (many concurrent flows share the 10 Mb/s
/// segment), so probes queue for several ms and the delta = 8 ms
/// compression line of Fig. 5 appears.  The European mid-speed path
/// carries the same traffic families at intermediate intensity (the
/// bottleneck is 16x faster than the transatlantic link, packets are the
/// same sizes).
inline constexpr CrossTraffic kInriaUmdCrossTraffic{};
inline constexpr CrossTraffic kUmdPittCrossTraffic{
    .session_load = 0.22,
    .bulk_load = 0.45,
    .mean_burst_packets = 30.0,
    .interactive_load = 0.08,
    .bulk_packet = ByteSize::bytes(1500),
    .interactive_packet = ByteSize::bytes(128)};
inline constexpr CrossTraffic kInriaEuropeCrossTraffic{
    .session_load = 0.30,
    .bulk_load = 0.30,
    .mean_burst_packets = 12.0,
    .interactive_load = 0.08};
inline constexpr Bandwidth kInriaEuropeBottleneck = Bandwidth::mbps(2);

}  // namespace bolot::scenario

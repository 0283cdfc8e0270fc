// Accuracy validation of the hybrid fluid/packet engine (MODEL_NOTES §15):
//
//   1. Against the Kleinrock-independence analytic model (model/kia.h) on
//      a fat-tree: the kMd1Wait fluid mode samples per-hop waits with
//      exact M/D/1 first two moments, so the probe's mean RTT and jitter
//      must land on the analytic prediction.
//   2. Against a fully packetized reference on the same small fabric: the
//      identical flow population simulated packet-by-packet must produce
//      the same mean RTT within the stated tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "model/kia.h"
#include "scenario/scenarios.h"

namespace bolot::scenario {
namespace {

/// The displaced packet size a fluid link's kMd1Wait moments use (the
/// background's fixed 512 bytes, MODEL_NOTES §15).
constexpr ByteSize kBackgroundPacket = ByteSize::bytes(512);

struct TraceMoments {
  double mean_ms = 0.0;
  double jitter_ms = 0.0;
};

TraceMoments moments(const analysis::ProbeTrace& trace) {
  const std::vector<double> rtts = trace.rtt_ms_received();
  TraceMoments m;
  if (rtts.empty()) return m;
  m.mean_ms = std::accumulate(rtts.begin(), rtts.end(), 0.0) /
              static_cast<double>(rtts.size());
  double var = 0.0;
  for (const double r : rtts) var += (r - m.mean_ms) * (r - m.mean_ms);
  m.jitter_ms = std::sqrt(var / static_cast<double>(rtts.size()));
  return m;
}

ScenarioOverrides fabric_overrides(sim::FluidQueueModel queue_model) {
  ScenarioOverrides overrides;
  TopologySpec spec;
  spec.fat_tree_k = 4;
  spec.hosts_per_edge = 2;
  spec.seed = 5;
  overrides.topology = spec;
  FluidBackgroundConfig background;
  background.flows = 2000;
  // Only each link's mean demand is modelled, whatever the duty; the
  // M/D/1 waits assume Poisson arrivals at that mean.
  background.duty = 1.0;
  background.max_link_load = 0.5;
  background.queue_model = queue_model;
  overrides.fluid_background = background;
  return overrides;
}

TEST(FluidValidationTest, HybridMatchesKiaMeanAndJitterOnFatTree) {
  ProbePlan plan;
  plan.delta = Duration::millis(20);
  plan.duration = Duration::seconds(80);  // 4000 probes
  plan.seed = 1993;
  const ScenarioOverrides overrides =
      fabric_overrides(sim::FluidQueueModel::kMd1Wait);
  const ScenarioResult result = run_topology(plan, overrides);
  ASSERT_GT(result.trace.received_count(), 3000u);
  ASSERT_FALSE(result.probe_hops.empty());

  std::vector<model::KiaHop> hops;
  for (const ScenarioResult::ProbeHop& hop : result.probe_hops) {
    hops.push_back({hop.capacity, hop.fluid, hop.propagation});
  }
  const model::KiaDelay predicted =
      model::kia_path_delay(hops, plan.probe_wire, kBackgroundPacket);
  const TraceMoments measured = moments(result.trace);

  EXPECT_NEAR(measured.mean_ms, predicted.mean_seconds * 1e3,
              0.05 * predicted.mean_seconds * 1e3)
      << "jitter " << measured.jitter_ms << " ms vs "
      << predicted.jitter_seconds() * 1e3 << " ms";
  EXPECT_NEAR(measured.jitter_ms, predicted.jitter_seconds() * 1e3,
              0.05 * predicted.jitter_seconds() * 1e3);
}

TEST(FluidValidationTest, HybridMatchesFullyPacketizedReference) {
  // Same fabric, same population; radius 100 packetizes every flow (the
  // reference), nullopt makes every flow fluid (the hybrid under test).
  // The probed round trip is ~12 links, within the <= 10-link-per-
  // direction validation envelope.
  ProbePlan plan;
  plan.delta = Duration::millis(25);
  plan.duration = Duration::seconds(40);
  plan.seed = 7;

  ScenarioOverrides hybrid = fabric_overrides(sim::FluidQueueModel::kMd1Wait);
  hybrid.fluid_background->flows = 400;
  hybrid.fluid_background->max_link_load = 0.35;
  ScenarioOverrides reference = hybrid;
  reference.packetize_radius = 100;

  const ScenarioResult hybrid_run = run_topology(plan, hybrid);
  const ScenarioResult reference_run = run_topology(plan, reference);
  ASSERT_EQ(hybrid_run.background_flows_packetized, 0u);
  ASSERT_EQ(reference_run.background_flows_fluid, 0u);
  ASSERT_GT(hybrid_run.trace.received_count(), 1000u);
  ASSERT_GT(reference_run.trace.received_count(), 1000u);

  const TraceMoments fluid = moments(hybrid_run.trace);
  const TraceMoments packets = moments(reference_run.trace);
  EXPECT_NEAR(fluid.mean_ms, packets.mean_ms, 0.05 * packets.mean_ms)
      << "hybrid jitter " << fluid.jitter_ms << " ms, packetized jitter "
      << packets.jitter_ms << " ms";
  // The event bill is the point: the reference pays per background
  // packet, the hybrid pays per probed packet.
  EXPECT_LT(hybrid_run.events, reference_run.events / 2);
}

TEST(FluidValidationTest, ResidualRateModeShiftsMeanWithoutJitter) {
  // kResidualRate is the deterministic headline mode: same fluid demand,
  // no sampled waits — delay is stretched but the tails collapse (the
  // documented bias; MODEL_NOTES §15).
  ProbePlan plan;
  plan.delta = Duration::millis(25);
  plan.duration = Duration::seconds(20);
  plan.seed = 21;
  const ScenarioResult result = run_topology(
      plan, fabric_overrides(sim::FluidQueueModel::kResidualRate));
  ASSERT_GT(result.trace.received_count(), 500u);
  const TraceMoments measured = moments(result.trace);
  // Constant demand + periodic probes: every RTT is identical.
  EXPECT_LT(measured.jitter_ms, 1e-3);
  // But slower than an unloaded fabric: residual service stretched the
  // transmission times.
  double unloaded_ms = 0.0;
  for (const ScenarioResult::ProbeHop& hop : result.probe_hops) {
    unloaded_ms += hop.propagation.millis() +
                   1e3 * static_cast<double>(plan.probe_wire.count() * 8) /
                       hop.capacity.bps();
  }
  EXPECT_GT(measured.mean_ms, unloaded_ms * 1.0001);
}

}  // namespace
}  // namespace bolot::scenario

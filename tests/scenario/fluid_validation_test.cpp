// Accuracy validation of the hybrid fluid/packet engine (MODEL_NOTES §15):
//
//   1. Against the Kleinrock-independence analytic model (model/kia.h) on
//      a fat-tree: fluid links sample per-hop waits with exact M/D/1
//      first two moments, so the probe's mean RTT and jitter must land
//      on the analytic prediction.
//   2. Against a fully packetized reference on the same small fabric: the
//      identical flow population simulated packet-by-packet must produce
//      the same mean RTT within the stated tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "model/kia.h"
#include "scenario/scenarios.h"
#include "sim/fluid.h"

namespace bolot::scenario {
namespace {

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

ScenarioOverrides fabric_overrides() {
  ScenarioOverrides overrides;
  TopologySpec spec;
  spec.fat_tree_k = 4;
  spec.hosts_per_edge = 2;
  spec.seed = 5;
  overrides.topology = spec;
  FluidBackgroundConfig background;
  background.flows = 2000;
  // Only each link's mean demand is modelled; the M/D/1 waits assume
  // Poisson arrivals at that mean.
  background.max_link_load = 0.5;
  overrides.fluid_background = background;
  return overrides;
}

TEST(FluidValidationTest, HybridMatchesKiaMeanAndJitterOnFatTree) {
  ProbePlan plan;
  plan.delta = Duration::millis(20);
  plan.duration = Duration::seconds(80);  // 4000 probes
  plan.seed = 1993;
  const ScenarioOverrides overrides = fabric_overrides();
  const ScenarioResult result = run_topology(plan, overrides);
  ASSERT_GT(result.trace.received_count(), 3000u);
  ASSERT_FALSE(result.probe_hops.empty());

  std::vector<model::KiaHop> hops;
  for (const ScenarioResult::ProbeHop& hop : result.probe_hops) {
    hops.push_back({hop.capacity, hop.fluid, hop.propagation});
  }
  const model::KiaDelay predicted =
      model::kia_path_delay(hops, plan.probe_wire, sim::kBackgroundPacket);
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

  ScenarioOverrides hybrid = fabric_overrides();
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

TEST(FluidValidationTest, KiaOracleRejectsNonFiniteInputs) {
  // NaN fails every comparison: md1_mean_wait_seconds returned NaN, and
  // kia_path_delay a plausible delay, before the accept tests.
  for (const double bad : {-0.1, 1.0, std::nan("")}) {
    SCOPED_TRACE(bad);
    try {
      model::md1_mean_wait_seconds(bad, 1e-3);
      ADD_FAILURE() << "rho accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(),
                   "md1_mean_wait_seconds: need rho in [0, 1) and finite "
                   "service >= 0");
    }
  }
  for (const double bad : {-1e-3, std::nan(""), HUGE_VAL}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(model::md1_mean_wait_seconds(0.5, bad),
                 std::invalid_argument);
  }
  const std::vector<model::KiaHop> hops(1);
  for (const double bad : {0.0, 1.0, std::nan("")}) {
    SCOPED_TRACE(bad);
    try {
      model::kia_path_delay(hops, ByteSize::bytes(72), sim::kBackgroundPacket,
                            bad);
      ADD_FAILURE() << "max_rho accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "kia_path_delay: max_rho outside (0, 1)");
    }
  }
}

}  // namespace
}  // namespace bolot::scenario

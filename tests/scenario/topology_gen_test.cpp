#include "scenario/topology_gen.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/scenarios.h"
#include "sim/network.h"
#include "sim/pdes.h"
#include "sim/simulator.h"

namespace bolot::scenario {
namespace {

TEST(TopologyGenTest, SameSeedWiresIdentically) {
  for (const auto family :
       {TopologySpec::Family::kFatTree, TopologySpec::Family::kAsHierarchy}) {
    TopologySpec spec;
    spec.family = family;
    spec.seed = 77;
    const std::uint64_t digest = generate_topology(spec).wiring_digest();
    EXPECT_EQ(generate_topology(spec).wiring_digest(), digest);
    spec.seed = 78;
    EXPECT_NE(generate_topology(spec).wiring_digest(), digest)
        << "seed must reach the wiring (propagation jitter)";
  }
}

TEST(TopologyGenTest, FatTreeHasTheTextbookShape) {
  TopologySpec spec;
  spec.fat_tree_k = 4;
  spec.hosts_per_edge = 2;
  const TopologyPlan plan = generate_topology(spec);
  // k pods x (k/2 edge + k/2 agg + (k/2)*hosts) + (k/2)^2 cores.
  EXPECT_EQ(plan.nodes.size(), 4u * (2 + 2 + 4) + 4u);
  EXPECT_EQ(plan.hosts.size(), 16u);
  // Host links + per-pod bipartite + core links.
  EXPECT_EQ(plan.edges.size(), 16u + 4u * 4u + 4u * 4u);
  EXPECT_EQ(plan.partition_count, 4u);
  for (const std::uint32_t host : plan.hosts) {
    EXPECT_TRUE(plan.nodes[host].is_host);
  }
}

TEST(TopologyGenTest, AsHierarchyHasMeshProvidersAndPeers) {
  TopologySpec spec;
  spec.family = TopologySpec::Family::kAsHierarchy;
  spec.core_count = 4;
  spec.stubs_per_core = 3;
  spec.hosts_per_stub = 2;
  spec.peer_links = 2;
  const TopologyPlan plan = generate_topology(spec);
  EXPECT_EQ(plan.nodes.size(), 4u + 12u + 24u);
  EXPECT_EQ(plan.hosts.size(), 24u);
  // Core mesh C(4,2) + provider links + host links + peering shortcuts.
  EXPECT_EQ(plan.edges.size(), 6u + 12u + 24u + 2u);
  EXPECT_EQ(plan.partition_count, 4u);
}

TEST(TopologyGenTest, WiringDigestsArePinned) {
  // The default fat-tree and the perf ledger's two fabrics.  A change to
  // a generator, or to the fields the digest mixes, moves these.
  TopologySpec ledger_fat_tree;
  ledger_fat_tree.fat_tree_k = 4;
  ledger_fat_tree.hosts_per_edge = 2;
  ledger_fat_tree.seed = 3;
  TopologySpec ledger_mesh;
  ledger_mesh.family = TopologySpec::Family::kAsHierarchy;
  ledger_mesh.core_count = 2;
  ledger_mesh.stubs_per_core = 3;
  ledger_mesh.hosts_per_stub = 3;
  ledger_mesh.peer_links = 0;
  ledger_mesh.seed = 7;
  EXPECT_EQ(generate_topology(TopologySpec{}).wiring_digest(),
            0x4fb2922d2ddcd74bULL);
  EXPECT_EQ(generate_topology(ledger_fat_tree).wiring_digest(),
            0x11d74a8fb2d9d3acULL);
  EXPECT_EQ(generate_topology(ledger_mesh).wiring_digest(),
            0x608b183c80a8282cULL);
}

TEST(TopologyGenTest, FatTreeRejectsOddKAndHostlessEdges) {
  const auto expect_rejected = [](const TopologySpec& spec,
                                  const char* what) {
    try {
      generate_topology(spec);
      ADD_FAILURE() << "accepted; expected: " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), what);
    }
  };
  TopologySpec odd;
  odd.fat_tree_k = 3;
  expect_rejected(odd, "generate_topology: fat_tree_k must be even");
  TopologySpec hostless;
  hostless.hosts_per_edge = 0;
  expect_rejected(hostless, "generate_topology: hosts_per_edge == 0");
}

TEST(TopologyGenTest, InstantiateRejectsMoreDomainsThanPartitions) {
  // The enforcement surface behind the scenario build's domains clamp:
  // callers must clamp against partition_count, and the instantiator
  // refuses to paper over it.
  const TopologyPlan plan = generate_topology(TopologySpec{});  // 4 pods
  sim::Simulator sim;
  sim::Network net(sim, 1);
  const auto sim_of = [&](std::size_t) -> sim::Simulator& { return sim; };
  EXPECT_THROW(instantiate_topology(plan, net, 5, sim_of),
               std::invalid_argument);
}

TEST(TopologyGenTest, InstantiateBuildsEveryNodeAndDuplexLink) {
  const TopologyPlan plan = generate_topology(TopologySpec{});
  sim::Simulator sim;
  sim::Network net(sim, 1);
  const auto sim_of = [&](std::size_t) -> sim::Simulator& { return sim; };
  const BuiltTopology built = instantiate_topology(plan, net, 1, sim_of);
  EXPECT_EQ(net.node_count(), plan.nodes.size());
  EXPECT_EQ(net.link_count(), 2 * plan.edges.size());
  EXPECT_EQ(built.nodes.size(), plan.nodes.size());
  EXPECT_EQ(built.node_domain.size(), plan.nodes.size());
  for (const std::size_t domain : built.node_domain) {
    EXPECT_EQ(domain, 0u);
  }
}

TEST(TopologyGenTest, PartitionHintsSplitEvenlyAcrossDomains) {
  const TopologyPlan plan = generate_topology(TopologySpec{});  // 4 pods
  sim::ParallelSimulation psim(2);
  sim::Network net(psim.simulator(0), 1);
  const auto sim_of = [&](std::size_t d) -> sim::Simulator& {
    return psim.simulator(d);
  };
  const BuiltTopology built = instantiate_topology(plan, net, 2, sim_of);
  std::vector<std::size_t> population(2, 0);
  for (const std::size_t domain : built.node_domain) {
    ASSERT_LT(domain, 2u);
    ++population[domain];
  }
  EXPECT_EQ(population[0], population[1]);  // pods 0+1 vs pods 2+3
}

ProbePlan small_fabric_plan() {
  ProbePlan plan;
  plan.delta = Duration::millis(40);
  plan.duration = Duration::seconds(4);
  plan.seed = 424242;
  return plan;
}

ScenarioOverrides small_fabric(std::optional<std::size_t> radius) {
  ScenarioOverrides overrides;
  TopologySpec spec;
  spec.fat_tree_k = 4;
  spec.hosts_per_edge = 2;
  spec.seed = 11;
  overrides.topology = spec;
  FluidBackgroundConfig background;
  background.flows = 500;
  background.max_link_load = 0.4;
  background.envelope_states = 3;
  overrides.fluid_background = background;
  overrides.packetize_radius = radius;
  return overrides;
}

ScenarioResult run_small_fabric(std::optional<std::size_t> radius) {
  return run_topology(small_fabric_plan(), small_fabric(radius));
}

TEST(RunTopologyTest, PacketizeRadiusSplitsThePopulation) {
  // nullopt -> everything fluid; a huge radius -> everything packetized.
  const ScenarioResult all_fluid = run_small_fabric(std::nullopt);
  EXPECT_EQ(all_fluid.background_flows_packetized, 0u);
  EXPECT_GT(all_fluid.background_flows_fluid, 0u);
  const ScenarioResult all_packets = run_small_fabric(100);
  EXPECT_EQ(all_packets.background_flows_fluid, 0u);
  EXPECT_GT(all_packets.background_flows_packetized, 0u);
  // A fully fluid run dispatches far fewer events than a fully packetized
  // one carrying the identical population — the engine's reason to exist.
  EXPECT_LT(all_fluid.events, all_packets.events / 2);
}

TEST(RunTopologyTest, FluidEventCountIsFlatInFlowCount) {
  // The property the fluid engine exists for: folded flows cost zero
  // events, so the run's event bill is the same at every population size.
  ProbePlan plan;
  plan.delta = Duration::millis(20);
  plan.duration = Duration::seconds(4);
  plan.seed = 1993;
  ScenarioOverrides overrides;
  TopologySpec spec;
  spec.fat_tree_k = 4;
  spec.hosts_per_edge = 2;
  spec.seed = 3;
  overrides.topology = spec;
  FluidBackgroundConfig background;
  background.max_link_load = 0.4;  // calibrated: same load at every size
  background.envelope_states = 3;
  for (const std::size_t flows : {1000u, 10000u, 100000u, 1000000u}) {
    SCOPED_TRACE(std::to_string(flows) + " flows");
    background.flows = flows;
    overrides.fluid_background = background;
    const ScenarioResult result = run_topology(plan, overrides);
    EXPECT_EQ(result.background_flows_fluid, flows);
    EXPECT_EQ(result.events, 5362u);
  }
}

/// Pins recorded as hex floats: the fluid demand on every probed hop is
/// the per-flow addend times the number of crossing flows, so any change
/// to the pair stream, the calibration or the fold moves a bit here.
ScenarioOverrides pinned_fabric(std::size_t flows,
                                std::optional<std::size_t> radius) {
  ScenarioOverrides overrides = small_fabric(radius);
  overrides.fluid_background->flows = flows;
  overrides.fluid_background->envelope_states = 0;
  return overrides;
}

ProbePlan pinned_plan() {
  ProbePlan plan = small_fabric_plan();
  plan.duration = Duration::seconds(1);
  return plan;
}

void expect_probe_hop_fluid(const ScenarioResult& result,
                            const std::vector<double>& expected) {
  ASSERT_EQ(result.probe_hops.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.probe_hops[i].fluid.bps(), expected[i]) << "hop " << i;
  }
}

TEST(RunTopologyTest, CalibratedFluidDemandIsPinned) {
  const ScenarioResult result = run_topology(
      pinned_plan(), pinned_fabric(100000, std::nullopt));
  EXPECT_EQ(result.background_flows_fluid, 100000u);
  EXPECT_EQ(result.background_flows_packetized, 0u);
  expect_probe_hop_fluid(
      result,
      {0x1.de22bf2p+21, 0x1.bf95b404p+22, 0x1.7cdb696ap+23,
       0x1.7ee5ca84p+23, 0x1.be0f23a4p+22, 0x1.da7964ap+21,
       0x1.d0409d5p+21, 0x1.b76c2f9cp+22, 0x1.7993b302p+23,
       0x1.7b54d90ap+23, 0x1.b6167148p+22, 0x1.d3614548p+21});
}

TEST(RunTopologyTest, ExplicitPeakFluidDemandIsPinned) {
  // The peak is always calibrated from max_link_load: a second flow
  // count pins that calibration and the fold at another population.
  const ScenarioResult result =
      run_topology(pinned_plan(), pinned_fabric(10000, std::nullopt));
  EXPECT_EQ(result.background_flows_fluid, 10000u);
  EXPECT_EQ(result.background_flows_packetized, 0u);
  expect_probe_hop_fluid(
      result,
      {0x1.b3ea348p+21, 0x1.a94cd05p+22, 0x1.699c773p+23,
       0x1.5fb43bdp+23, 0x1.98ab9138p+22, 0x1.a897a78p+21,
       0x1.aa01f92p+21, 0x1.a50ddb7p+22, 0x1.5e49ea3p+23,
       0x1.5ac01e2p+23, 0x1.83cb5d4p+22, 0x1.9f6494fp+21});
}

TEST(RunTopologyTest, PacketizedSplitIsPinned) {
  // Every probed hop lies in the zone, so none carries fluid; the split,
  // and the packet sources' flow ids and rng splits (through the event
  // and delivery counts), are what this pins.
  const ScenarioResult result = run_topology(
      pinned_plan(), pinned_fabric(2000, 1));
  EXPECT_EQ(result.background_flows_fluid, 242u);
  EXPECT_EQ(result.background_flows_packetized, 1758u);
  EXPECT_EQ(result.events, 1226061u);
  EXPECT_EQ(result.hop_deliveries, 564160u);
  expect_probe_hop_fluid(result, std::vector<double>(12, 0.0));
}

TEST(RunTopologyTest, RejectsChainOverrides) {
  // A generated fabric has no designated bottleneck hop, faulty cards,
  // cross-traffic hosts or sampler: each chain knob is a named error, not
  // a silently ignored field.
  using Set = void (*)(ScenarioOverrides&);
  const std::pair<const char*, Set> fields[] = {
      {"bottleneck_buffer_packets",
       [](ScenarioOverrides& o) { o.bottleneck_buffer_packets = 8; }},
      {"bottleneck_red",
       [](ScenarioOverrides& o) { o.bottleneck_red = sim::RedConfig{}; }},
      {"faulty_interface_drop",
       [](ScenarioOverrides& o) {
         o.faulty_interface_drop = Probability::zero();
       }},
      {"cross_traffic",
       [](ScenarioOverrides& o) { o.cross_traffic = CrossTraffic{}; }},
      {"bottleneck_channel",
       [](ScenarioOverrides& o) {
         o.bottleneck_channel = sim::GilbertChannelConfig{
             Probability::checked(0.1), Probability::checked(0.5)};
       }},
      {"obs_sample_interval",
       [](ScenarioOverrides& o) {
         o.obs_sample_interval = Duration::millis(100);
       }},
  };
  for (const auto& [field, set] : fields) {
    ScenarioOverrides overrides = small_fabric(1);
    set(overrides);
    try {
      run_topology(small_fabric_plan(), overrides);
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), std::string("run_topology: ") + field +
                              " is a chain-scenario override");
    }
  }
}

TEST(RunTopologyTest, RejectsMalformedFluidBackground) {
  // One malformed variant per validated field; each must be refused with
  // a std::invalid_argument whose message names the field.
  const ScenarioOverrides base = small_fabric(1);
  const auto expect_rejected = [&](const char* field, const auto& corrupt) {
    SCOPED_TRACE(field);
    ScenarioOverrides overrides = base;
    corrupt(*overrides.fluid_background);
    try {
      run_topology(small_fabric_plan(), overrides);
      ADD_FAILURE() << "malformed " << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using Config = FluidBackgroundConfig;
  expect_rejected("max_link_load", [](Config& c) { c.max_link_load = 0.0; });
  expect_rejected("max_link_load", [](Config& c) { c.max_link_load = 1.5; });
  expect_rejected("max_link_load", [&](Config& c) { c.max_link_load = nan; });
  expect_rejected("envelope_states", [](Config& c) {
    c.envelope_states = 1;
  });
}

}  // namespace
}  // namespace bolot::scenario

#include "scenario/scenarios.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "nettime/clock.h"

#include "analysis/loss.h"
#include "analysis/phase_plot.h"
#include "analysis/stats.h"

namespace bolot::scenario {
namespace {

ProbePlan quick_plan(double delta_ms, double minutes = 2.0) {
  ProbePlan plan;
  plan.delta = Duration::millis(delta_ms);
  plan.duration = Duration::minutes(minutes);
  return plan;
}

TEST(ProbePlanTest, ProbeCountFromDuration) {
  ProbePlan plan;
  plan.delta = Duration::millis(50);
  plan.duration = Duration::minutes(10);
  EXPECT_EQ(plan.probe_count(), 12000u);
  plan.delta = Duration::millis(8);
  EXPECT_EQ(plan.probe_count(), 75000u);
}

TEST(InriaUmdTest, RouteMatchesTable1) {
  const auto result = run_inria_umd(quick_plan(100, 0.2));
  const auto& expected = inria_umd_route_names();
  ASSERT_EQ(result.route.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.route[i].name, expected[i]) << "hop " << i;
  }
  EXPECT_EQ(expected.size(), 10u);  // Table 1 has ten hops
}

TEST(UmdPittTest, RouteMatchesTable2) {
  const auto result = run_umd_pitt(quick_plan(100, 0.2));
  const auto& expected = umd_pitt_route_names();
  ASSERT_EQ(result.route.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.route[i].name, expected[i]) << "hop " << i;
  }
  EXPECT_EQ(expected.size(), 14u);  // Table 2 has fourteen hops
}

TEST(InriaUmdTest, FixedDelayNear140ms) {
  const auto result = run_inria_umd(quick_plan(50));
  const auto rtts = result.trace.rtt_ms_received();
  ASSERT_FALSE(rtts.empty());
  const double min_rtt = analysis::summarize(rtts).min;
  EXPECT_NEAR(min_rtt, 140.0, 6.0);
}

TEST(InriaUmdTest, RttsQuantizedToDecstationTick) {
  const auto result = run_inria_umd(quick_plan(50, 0.5));
  EXPECT_EQ(result.trace.clock_tick, bolot::kDecstationTick);
  for (const auto& record : result.trace.records) {
    if (!record.received) continue;
    EXPECT_EQ(record.rtt.count_nanos() % bolot::kDecstationTick.count_nanos(), 0);
  }
}

TEST(InriaUmdTest, ClockTickOverrideDisablesQuantization) {
  ScenarioOverrides overrides;
  overrides.clock_tick = Duration::zero();
  const auto result = run_inria_umd(quick_plan(50, 0.5), overrides);
  EXPECT_EQ(result.trace.clock_tick, Duration::zero());
}

TEST(InriaUmdTest, NegativeClockTickOverrideIsRejected) {
  // Zero means an exact clock; a negative tick is an error, not "exact".
  ScenarioOverrides overrides;
  overrides.clock_tick = Duration::millis(-1);
  try {
    run_inria_umd(quick_plan(50, 0.1), overrides);
    ADD_FAILURE() << "a negative clock_tick was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("clock_tick"), std::string::npos)
        << e.what();
  }
}

TEST(InriaUmdTest, DeterministicForFixedSeed) {
  const auto a = run_inria_umd(quick_plan(50, 0.5));
  const auto b = run_inria_umd(quick_plan(50, 0.5));
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace.records[i].rtt, b.trace.records[i].rtt);
  }
}

TEST(InriaUmdTest, DifferentSeedsGiveDifferentTraces) {
  auto plan_b = quick_plan(50, 0.5);
  plan_b.seed = 4242;
  const auto a = run_inria_umd(quick_plan(50, 0.5));
  const auto b = run_inria_umd(plan_b);
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    if (a.trace.records[i].rtt == b.trace.records[i].rtt) ++same;
  }
  EXPECT_LT(same, a.trace.size());
}

TEST(InriaUmdTest, BottleneckIsBusiestLink) {
  const auto result = run_inria_umd(quick_plan(50));
  EXPECT_GT(result.bottleneck_forward.utilization(result.simulated), 0.3);
  EXPECT_GT(result.bottleneck_forward.overflow_drops, 0u);
}

TEST(InriaUmdTest, NoCrossTrafficMeansNoQueueingAndOnlyRandomLoss) {
  ScenarioOverrides overrides;
  CrossTraffic cross;
  cross.session_load = 0.0;
  cross.bulk_load = 0.0;
  cross.interactive_load = 0.0;
  overrides.cross_traffic = cross;
  const auto result = run_inria_umd(quick_plan(50), overrides);
  EXPECT_EQ(result.total_overflow_drops, 0u);
  const auto loss = analysis::loss_stats(result.trace);
  // Only the faulty-interface stages drop: 4 traversals at 1.1%.
  EXPECT_NEAR(loss.ulp, 1.0 - std::pow(1.0 - 0.011, 4), 0.02);
  // And rtts stay near the fixed delay.
  const auto rtts = result.trace.rtt_ms_received();
  EXPECT_LT(analysis::summarize(rtts).max, 160.0);
}

TEST(InriaUmdTest, FaultyDropOverrideZeroRemovesRandomLoss) {
  ScenarioOverrides overrides;
  overrides.faulty_interface_drop = Probability::checked(0.0);
  const auto result = run_inria_umd(quick_plan(50), overrides);
  EXPECT_EQ(result.total_random_drops, 0u);
}

TEST(InriaUmdTest, BufferOverrideChangesLoss) {
  ScenarioOverrides small;
  small.bottleneck_buffer_packets = 4;
  ScenarioOverrides large;
  large.bottleneck_buffer_packets = 64;
  const auto loss_small =
      analysis::loss_stats(run_inria_umd(quick_plan(50), small).trace);
  const auto loss_large =
      analysis::loss_stats(run_inria_umd(quick_plan(50), large).trace);
  EXPECT_GT(loss_small.ulp, loss_large.ulp);
}

TEST(InriaUmdTest, RedOverrideMovesDropsToRed) {
  ScenarioOverrides overrides;
  sim::RedConfig red;
  red.min_threshold = 2.0;
  red.max_threshold = 10.0;
  red.max_probability = Probability::checked(0.2);
  red.weight = 0.05;
  overrides.bottleneck_red = red;
  const auto result = run_inria_umd(quick_plan(50), overrides);
  EXPECT_GT(result.bottleneck_forward.red_drops, 0u);
  // RED keeps the instantaneous queue below the hard drop-tail limit most
  // of the time, so overflow drops shrink dramatically.
  EXPECT_LT(result.bottleneck_forward.overflow_drops,
            result.bottleneck_forward.red_drops);
}

TEST(ChainScenarioTest, RejectsRunTopologyOverrides) {
  // A paper path is not a generated fabric: each run_topology knob is a
  // named error, not a silently ignored field.
  using Set = void (*)(ScenarioOverrides&);
  const std::pair<const char*, Set> fields[] = {
      {"topology",
       [](ScenarioOverrides& o) { o.topology = TopologySpec{}; }},
      {"fluid_background",
       [](ScenarioOverrides& o) {
         o.fluid_background = FluidBackgroundConfig{};
       }},
      {"packetize_radius",
       [](ScenarioOverrides& o) { o.packetize_radius = 0; }},
  };
  for (const auto& [field, set] : fields) {
    ScenarioOverrides overrides;
    set(overrides);
    for (const auto run : {run_inria_umd, run_umd_pitt, run_inria_europe}) {
      try {
        run(quick_plan(100, 0.1), overrides);
        ADD_FAILURE() << field << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(e.what(), std::string("chain scenario: ") + field +
                                " is a run_topology override");
      }
    }
  }
}

TEST(ChainScenarioTest, RejectsNegativeOrNonFiniteCrossTrafficLoads) {
  // A negative load would build no source, the run of a zero load; each
  // bad load is a named error instead.  So is a burst length that is not
  // a finite count of at least one packet (NaN or infinity used to reach
  // the burst-gap arithmetic as an undefined cast).
  const std::tuple<const char*, double CrossTraffic::*, const char*>
      fields[] = {
          {"session_load", &CrossTraffic::session_load, "0"},
          {"bulk_load", &CrossTraffic::bulk_load, "0"},
          {"interactive_load", &CrossTraffic::interactive_load, "0"},
          {"mean_burst_packets", &CrossTraffic::mean_burst_packets, "1"},
      };
  for (const auto& [field, value, lowest] : fields) {
    for (const double bad : {-1.0, std::nan(""), HUGE_VAL}) {
      ScenarioOverrides overrides;
      overrides.cross_traffic = kUmdPittCrossTraffic;
      (*overrides.cross_traffic).*value = bad;
      try {
        run_umd_pitt(quick_plan(20, 0.1), overrides);
        ADD_FAILURE() << field << " = " << bad << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(e.what(), std::string("chain scenario: cross_traffic.") +
                                field + " must be finite and >= " + lowest);
      }
    }
  }
  // Zero stays legal: no source of that family.
  ScenarioOverrides overrides;
  overrides.cross_traffic = CrossTraffic{};
  overrides.cross_traffic->session_load = 0.0;
  overrides.cross_traffic->bulk_load = 0.0;
  overrides.cross_traffic->interactive_load = 0.0;
  EXPECT_NO_THROW(run_umd_pitt(quick_plan(20, 0.1), overrides));
}

TEST(ChainScenarioTest, InriaUmdCountersArePinned) {
  // The paper's Table-1 path under its default probe + bulk + interactive
  // mix at delta = 20 ms: one simulated second, then the full 10 minutes.
  ProbePlan plan = quick_plan(20);
  plan.duration = Duration::seconds(1);
  EXPECT_EQ(run_inria_umd(plan).events, 6'043u);
  const ScenarioResult full = run_inria_umd(quick_plan(20, 10.0));
  EXPECT_EQ(full.events, 1'194'667u);
  EXPECT_EQ(full.hop_deliveries, 565'146u);
  EXPECT_EQ(full.trace.received_count(), 24'455u);
}

TEST(InriaEuropeTest, RouteAndDelayMatchSpec) {
  const auto result = run_inria_europe(quick_plan(20, 1.0));
  const auto& expected = inria_europe_route_names();
  ASSERT_EQ(result.route.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.route[i].name, expected[i]) << "hop " << i;
  }
  const auto rtts = result.trace.rtt_ms_received();
  ASSERT_FALSE(rtts.empty());
  EXPECT_NEAR(analysis::summarize(rtts).min, 43.0, 6.0);
}

TEST(UmdPittTest, FixedDelayNear25ms) {
  const auto result = run_umd_pitt(quick_plan(50, 1.0));
  const auto rtts = result.trace.rtt_ms_received();
  ASSERT_FALSE(rtts.empty());
  EXPECT_NEAR(analysis::summarize(rtts).min, 25.0, 5.0);
}

TEST(UmdPittTest, MuchFasterBottleneckThanInriaUmd) {
  // The paper: "it is very likely that the bottleneck bandwidth is much
  // higher than ... 128 kb/s".  Compare queueing scales.
  const auto pitt = run_umd_pitt(quick_plan(8, 1.0));
  const auto inria = run_inria_umd(quick_plan(8, 1.0));
  const auto pitt_rtts = pitt.trace.rtt_ms_received();
  const auto inria_rtts = inria.trace.rtt_ms_received();
  const double pitt_spread = analysis::quantile(pitt_rtts, 0.95) -
                             analysis::summarize(pitt_rtts).min;
  const double inria_spread = analysis::quantile(inria_rtts, 0.95) -
                              analysis::summarize(inria_rtts).min;
  EXPECT_LT(pitt_spread, inria_spread);
}

}  // namespace
}  // namespace bolot::scenario

#include "sim/fluid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "tests/sim/sim_fixtures.h"
#include "tests/obs/find_metric.h"

namespace bolot::sim {
namespace {

/// A standalone aggregate on capacity `capacity_bps`: constant demand
/// `mean_bps` with 0 states, else an envelope around it.
FluidAggregate aggregate(Simulator& simulator, double capacity_bps,
                         double mean_bps, std::size_t states = 0,
                         Duration holding = Duration::zero(),
                         std::uint64_t envelope_seed = 0) {
  return FluidAggregate(simulator, Bandwidth::bps(capacity_bps),
                        Bandwidth::bps(mean_bps), states, holding, Rng(2),
                        Rng(envelope_seed));
}

/// Constant fluid demand `bps` on `link`, its waits drawn from the same
/// Rng(2) as aggregate()'s.
void attach_constant(Link& link, double bps) {
  link.attach_fluid(Bandwidth::bps(bps), 0, Duration::zero(), Rng(2),
                    Rng(0));
}

/// The times of a two-state envelope's edges, replayed from its seed, up
/// to the first past `until`: the start edge at zero, then one
/// exponential hold per state, with the jump's uniform draw between
/// holds.
std::vector<Duration> two_state_edges(std::uint64_t seed, Duration holding,
                                      Duration until) {
  Rng rng(seed);
  std::vector<Duration> edges{Duration::zero()};
  while (edges.back() <= until) {
    edges.push_back(edges.back() + rng.exponential_time(holding));
    rng.uniform();
  }
  return edges;
}

TEST(FluidAggregateTest, UtilizationIntegratesPiecewiseDemand) {
  // Two states around 1 Mb/s: 0.5 Mb/s from the start edge, then 1.5
  // Mb/s (capped at the 1 Mb/s capacity for the integral) from the first
  // jump until the second.
  Simulator simulator;
  FluidAggregate fluid =
      aggregate(simulator, 1e6, 1e6, 2, Duration::seconds(1), 5);
  const std::vector<Duration> edges =
      two_state_edges(5, Duration::seconds(1), Duration::seconds(10));
  ASSERT_GE(edges.size(), 3u);
  const Duration first = edges[1];
  const Duration end = first + (edges[2] - first) / 2;
  simulator.run_until(end);
  EXPECT_DOUBLE_EQ(fluid.fluid_rate().bps(), 1.5e6);
  const double expected =
      (0.5 * static_cast<double>(first.count_nanos()) +
       static_cast<double>((end - first).count_nanos())) /
      static_cast<double>(end.count_nanos());
  EXPECT_NEAR(fluid.utilization(simulator.now()), expected, 1e-12);
  fluid.audit_verify();
}

TEST(FluidAggregateTest, Md1WaitMatchesPollaczekKhinchineMoments) {
  Simulator simulator;
  // No demand, no wait, and no draw.
  EXPECT_TRUE(aggregate(simulator, 1e6, 0.0).sample_extra_wait().is_zero());
  const double rho = 0.6;
  FluidAggregate fluid = aggregate(simulator, 1e6, rho * 1e6);

  // Displaced packets are 512 B.
  const double service = 512.0 * 8.0 / 1e6;
  const double mean_wait = rho * service / (2.0 * (1.0 - rho));
  const double second =
      2.0 * mean_wait * mean_wait + rho * service * service / (3.0 * (1.0 - rho));
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double w = fluid.sample_extra_wait().seconds();
    sum += w;
    sum_sq += w * w;
  }
  EXPECT_NEAR(sum / n, mean_wait, 0.03 * mean_wait);
  EXPECT_NEAR(sum_sq / n, second, 0.05 * second);
}

TEST(FluidEnvelopeTest, OnOffEdgesToggleAggregateDemand) {
  // A two-state envelope swinging +-50 % around 300 kb/s: every jump
  // leaves its state for the other, so each edge toggles the demand
  // between 150 and 450 kb/s, starting low at the start edge, at the
  // times its seed replays.
  Simulator simulator;
  FluidAggregate fluid =
      aggregate(simulator, 1e6, 300e3, 2, Duration::millis(100), 9);
  const std::vector<Duration> edges =
      two_state_edges(9, Duration::millis(100), Duration::seconds(2));
  for (int step = 0; step <= 200; ++step) {
    const Duration at = Duration::millis(10 * step);
    simulator.run_until(at);
    const auto passed = std::upper_bound(edges.begin(), edges.end(), at) -
                        edges.begin();
    EXPECT_DOUBLE_EQ(fluid.fluid_rate().bps(),
                     passed % 2 == 1 ? 150e3 : 450e3)
        << "at " << 10 * step << " ms";
  }
  EXPECT_GT(edges.size(), 4u);
  fluid.audit_verify();
}

TEST(FluidEnvelopeTest, ConstantFlowCostsNoEvents) {
  // Constant demand is zero envelope states, which schedules nothing.  A
  // one-state envelope would be that constant, so it is a named error.
  Simulator simulator;
  FluidAggregate fluid = aggregate(simulator, 1e6, 250e3);
  simulator.run_until(Duration::seconds(5));
  EXPECT_DOUBLE_EQ(fluid.fluid_rate().bps(), 250e3);
  EXPECT_EQ(simulator.events_dispatched(), 0u);
  try {
    aggregate(simulator, 1e6, 250e3, 1, Duration::seconds(1));
    ADD_FAILURE() << "a one-state envelope was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "FluidAggregate: envelope needs 0 (constant) or >= 2 states");
  }
}

TEST(FluidEnvelopeTest, RejectsMalformedConfigs) {
  Simulator simulator;
  const auto expect_rejected = [&simulator](std::size_t states, double bps,
                                            Duration holding,
                                            const char* message) {
    try {
      aggregate(simulator, 1e6, bps, states, holding);
      ADD_FAILURE() << message << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), message);
    }
  };
  const double rate = 250e3;
  const Duration holding = Duration::millis(10);
  expect_rejected(1, rate, holding,
                  "FluidAggregate: envelope needs 0 (constant) or >= 2 states");
  for (const double bad : {-1.0, std::nan(""), HUGE_VAL}) {
    for (const std::size_t states : {0u, 2u}) {
      expect_rejected(states, bad, holding,
                      "FluidAggregate: mean rate must be finite and >= 0");
    }
  }
  expect_rejected(2, rate, Duration::zero(),
                  "FluidAggregate: envelope holding time must be positive");
  expect_rejected(2, rate, Duration::millis(-10),
                  "FluidAggregate: envelope holding time must be positive");
  // No rejected envelope left an event behind.
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(FluidEnvelopeTest, ModulatedTrajectoryIsPureFunctionOfSeed) {
  // The PDES contract: a replica constructed with the same (arguments,
  // seed) in another domain emits the identical trajectory, so fluid
  // demand crosses cuts without messages.  The wait seed plays no part.
  std::vector<double> rates_a, rates_b;
  for (int replica = 0; replica < 2; ++replica) {
    Simulator simulator;
    FluidAggregate fluid(simulator, Bandwidth::mbps(10),
                         /*mean_rate=*/Bandwidth::mbps(1), /*states=*/4,
                         /*mean_holding=*/Duration::millis(50),
                         Rng(replica + 1), Rng(0xFEED));
    auto& rates = replica == 0 ? rates_a : rates_b;
    for (int step = 1; step <= 20; ++step) {
      simulator.run_until(Duration::millis(25 * step));
      rates.push_back(fluid.fluid_rate().bps());
    }
  }
  EXPECT_EQ(rates_a, rates_b);
  // The chain actually moved.
  EXPECT_GT(std::set<double>(rates_a.begin(), rates_a.end()).size(), 2u);
}

TEST(FluidEnvelopeTest, EnvelopeConfigHasStationaryMeanAtPeak) {
  // Five states swinging +-50 % around 1 Mb/s: the rates are 0.5, 0.75,
  // 1, 1.25 and 1.5 Mb/s, and uniform jumps with a common holding time
  // make the stationary distribution uniform, so the time-average demand
  // is the mean rate.
  Simulator simulator;
  FluidAggregate fluid =
      aggregate(simulator, 10e6, 1e6, 5, Duration::millis(1), 7);
  std::set<double> rates;
  std::size_t changes = 0;
  double last = 0.0;
  for (int step = 1; step <= 100'000; ++step) {
    simulator.run_until(Duration::millis(step));
    const double rate = fluid.fluid_rate().bps();
    rates.insert(rate);
    if (rate != last) ++changes;
    last = rate;
  }
  EXPECT_EQ(rates, (std::set<double>{0.5e6, 0.75e6, 1e6, 1.25e6, 1.5e6}));
  EXPECT_GT(changes, 50'000u);
  // Utilization is the time-average demand over the 10 Mb/s capacity.
  EXPECT_NEAR(fluid.utilization(simulator.now()), 0.1, 0.001);
  fluid.audit_verify();
}

TEST(FluidLinkTest, PacketsServeAtFullRatePlusSampledWait) {
  Simulator simulator;
  LinkConfig config;
  config.rate = Bandwidth::bps(1e6);
  config.propagation = Duration::millis(10);
  config.buffer_packets = 8;
  Link link(simulator, config, Rng(1));
  attach_constant(link, 500e3);
  // A twin on the same seed draws the wait the link's packet will carry.
  const Duration wait = aggregate(simulator, 1e6, 500e3).sample_extra_wait();
  ASSERT_GT(wait, Duration::zero());  // this seed draws a nonzero wait

  std::vector<Duration> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(simulator.now()); });
  Packet p;
  p.size_bytes = 500;  // 4 ms at the full 1 Mb/s, whatever the demand
  link.enqueue(std::move(p));
  drain(simulator);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], Duration::millis(14) + wait);
  EXPECT_EQ(link.stats().busy, Duration::millis(4));
  link.audit_verify();
}

TEST(FluidLinkTest, SecondAttachThrows) {
  Simulator simulator;
  LinkConfig config;
  config.rate = Bandwidth::bps(1e6);
  Link link(simulator, config, Rng(1));
  link.attach_fluid(Bandwidth::bps(250e3), 2, Duration::millis(10), Rng(2),
                    Rng(3));
  try {
    attach_constant(link, 500e3);
    ADD_FAILURE() << "a second attach was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "Link: fluid aggregate already attached");
  }
  // The rejected call changed nothing: one envelope, one start edge.
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.run_until(Duration::zero());
  obs::MetricsRegistry registry;
  link.publish_metrics(registry, "lnk");
  const obs::MetricsSnapshot snap = registry.snapshot(simulator.now());
  const double* fluid_rate = obs::find_metric(snap, "lnk.fluid_rate_bps");
  ASSERT_NE(fluid_rate, nullptr);
  EXPECT_DOUBLE_EQ(*fluid_rate, 125e3);
}

TEST(FluidLinkTest, UtilizationGaugeReportsResidualCapacityView) {
  // Satellite regression: with a fluid aggregate attached, the
  // ".utilization" gauge must count the fluid share of the wire, not
  // just the (near-idle) packetized share.
  Simulator simulator;
  LinkConfig config;
  config.name = "fluid-link";
  config.rate = Bandwidth::bps(1e6);
  config.propagation = Duration::millis(1);
  config.buffer_packets = 8;
  Link link(simulator, config, Rng(1));
  attach_constant(link, 600e3);
  link.set_sink([](Packet&&) {});

  obs::MetricsRegistry registry;
  link.publish_metrics(registry, "lnk");
  // One packet: 500 B at the full 1 Mb/s = 4 ms busy in 1 s.
  Packet p;
  p.size_bytes = 500;
  link.enqueue(std::move(p));
  simulator.run_until(Duration::seconds(1));

  const obs::MetricsSnapshot snap = registry.snapshot(simulator.now());
  const double* utilization = obs::find_metric(snap, "lnk.utilization");
  ASSERT_NE(utilization, nullptr);
  EXPECT_NEAR(*utilization, 0.6 + 0.004, 1e-6);
  const double* fluid_rate = obs::find_metric(snap, "lnk.fluid_rate_bps");
  ASSERT_NE(fluid_rate, nullptr);
  EXPECT_DOUBLE_EQ(*fluid_rate, 600e3);
  const double* fluid_util = obs::find_metric(snap, "lnk.fluid_utilization");
  ASSERT_NE(fluid_util, nullptr);
  EXPECT_NEAR(*fluid_util, 0.6, 1e-9);
}

TEST(FluidLinkTest, FluidFreeLinkPublishesNoFluidGauges) {
  // The flip side of the regression: without an aggregate the snapshot
  // layout (names and order) is exactly the pre-fluid one.
  Simulator simulator;
  LinkConfig config;
  config.rate = Bandwidth::bps(1e6);
  Link link(simulator, config, Rng(1));
  obs::MetricsRegistry registry;
  link.publish_metrics(registry, "lnk");
  const obs::MetricsSnapshot snap = registry.snapshot(simulator.now());
  EXPECT_EQ(obs::find_metric(snap, "lnk.fluid_rate_bps"), nullptr);
  EXPECT_EQ(obs::find_metric(snap, "lnk.fluid_utilization"), nullptr);
  ASSERT_FALSE(snap.entries.empty());
  EXPECT_EQ(snap.entries.back().name, "lnk.utilization");
}

TEST(FluidLinkTest, UtilizationGaugesReadZeroBeforeTimeAdvances) {
  // Satellite regression: a snapshot taken at t == 0 (monitoring starts
  // before the first event) divides busy time by zero elapsed time
  // without the guards in LinkStats::utilization and
  // FluidAggregate::utilization.  Both gauges must read an idle 0.0,
  // never NaN — a NaN here poisons every downstream aggregate and, until
  // the non-finite-export fix, broke the JSON artifacts too.
  Simulator simulator;
  LinkConfig config;
  config.name = "fluid-link";
  config.rate = Bandwidth::bps(1e6);
  config.propagation = Duration::millis(1);
  config.buffer_packets = 8;
  Link link(simulator, config, Rng(1));
  attach_constant(link, 600e3);
  link.set_sink([](Packet&&) {});

  obs::MetricsRegistry registry;
  link.publish_metrics(registry, "lnk");

  const obs::MetricsSnapshot snap = registry.snapshot(simulator.now());
  const double* utilization = obs::find_metric(snap, "lnk.utilization");
  ASSERT_NE(utilization, nullptr);
  EXPECT_FALSE(std::isnan(*utilization));
  EXPECT_EQ(*utilization, 0.0);
  const double* fluid_util = obs::find_metric(snap, "lnk.fluid_utilization");
  ASSERT_NE(fluid_util, nullptr);
  EXPECT_FALSE(std::isnan(*fluid_util));
  EXPECT_EQ(*fluid_util, 0.0);
}

}  // namespace
}  // namespace bolot::sim

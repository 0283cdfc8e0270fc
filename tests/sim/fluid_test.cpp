#include "sim/fluid.h"

#include <gtest/gtest.h>

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

FluidAggregateConfig aggregate_config(double capacity_bps = 1e6) {
  FluidAggregateConfig config;
  config.capacity = Bandwidth::bps(capacity_bps);
  return config;
}

TEST(FluidAggregateTest, ResidualRateSubtractsDemandWithFloor) {
  Simulator simulator;
  FluidAggregate fluid(simulator, aggregate_config(1e6), Rng(1));
  EXPECT_DOUBLE_EQ(fluid.residual().bps(), 1e6);
  fluid.add_base_rate(Bandwidth::bps(400e3));
  EXPECT_DOUBLE_EQ(fluid.fluid_rate().bps(), 400e3);
  EXPECT_DOUBLE_EQ(fluid.residual().bps(), 600e3);
  // Oversubscription floors at 1 % of capacity instead of stalling the
  // transmitter.
  fluid.add_base_rate(Bandwidth::bps(2e6));
  EXPECT_DOUBLE_EQ(fluid.residual().bps(), 0.01 * 1e6);
}

TEST(FluidAggregateTest, ResidualServiceTimeStretchesByLoad) {
  Simulator simulator;
  FluidAggregate fluid(simulator, aggregate_config(1e6), Rng(1));
  const Duration empty = fluid.service_time(ByteSize::bytes(500));
  fluid.add_base_rate(Bandwidth::bps(500e3));  // residual = half capacity
  EXPECT_EQ(fluid.service_time(ByteSize::bytes(500)), empty * 2.0);
  // Residual mode is deterministic: the extra wait is zero and the rng
  // stream sits untouched.
  EXPECT_TRUE(fluid.sample_extra_wait().is_zero());
  EXPECT_EQ(fluid.wait_samples(), 0u);
}

TEST(FluidAggregateTest, UtilizationIntegratesPiecewiseDemand) {
  Simulator simulator;
  FluidAggregate fluid(simulator, aggregate_config(1e6), Rng(1));
  fluid.add_base_rate(Bandwidth::bps(500e3));
  // Demand doubles at t = 1 s (capped at capacity for the integral).
  simulator.schedule_at(Duration::seconds(1),
                        [&fluid] { fluid.adjust_rate(Bandwidth::bps(1.5e6)); });
  simulator.run_until(Duration::seconds(2));
  // [0,1): 0.5 busy share; [1,2): capped at 1.0 -> average 0.75.
  EXPECT_NEAR(fluid.utilization(simulator.now()), 0.75, 1e-9);
  EXPECT_EQ(fluid.rate_changes(), 1u);
  fluid.audit_verify();
}

TEST(FluidAggregateTest, Md1WaitMatchesPollaczekKhinchineMoments) {
  Simulator simulator;
  FluidAggregateConfig config = aggregate_config(1e6);
  config.queue_model = FluidQueueModel::kMd1Wait;
  config.mean_packet = ByteSize::bytes(512);
  FluidAggregate fluid(simulator, config, Rng(99));
  const double rho = 0.6;
  fluid.add_base_rate(Bandwidth::bps(rho * config.capacity.bps()));
  // kMd1Wait serves at full capacity; the queueing shows up as waits.
  EXPECT_EQ(fluid.service_time(ByteSize::bytes(500)),
            transmission_time(500 * 8, config.capacity.bps()));

  const double service = 512.0 * 8.0 / config.capacity.bps();
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
  EXPECT_EQ(fluid.wait_samples(), static_cast<std::uint64_t>(n));
}

TEST(FluidFlowTest, OnOffEdgesToggleAggregateDemand) {
  // A two-state envelope swinging +-50 % around 300 kb/s: every jump
  // leaves its state for the other, so each edge toggles the aggregate's
  // demand between 150 and 450 kb/s, starting low at the start edge.
  Simulator simulator;
  FluidAggregate fluid(simulator, aggregate_config(1e6), Rng(1));
  FluidFlow flow(simulator, Bandwidth::bps(300e3), 2, Duration::millis(100),
                 Rng(2));
  flow.attach(fluid);
  flow.start(Duration::zero());

  for (int step = 0; step <= 200; ++step) {
    simulator.run_until(Duration::millis(10 * step));
    ASSERT_GE(flow.edges(), 1u);
    EXPECT_DOUBLE_EQ(fluid.fluid_rate().bps(),
                     flow.edges() % 2 == 1 ? 150e3 : 450e3)
        << "at " << 10 * step << " ms";
    EXPECT_EQ(fluid.rate_changes(), flow.edges());
  }
  EXPECT_GT(flow.edges(), 3u);
  flow.audit_verify();
}

TEST(FluidFlowTest, ConstantFlowCostsNoEvents) {
  // Constant demand is not a FluidFlow: it is the aggregate's base rate,
  // which schedules nothing.  A one-state flow would be that constant,
  // so it is a named error.
  Simulator simulator;
  FluidAggregate fluid(simulator, aggregate_config(1e6), Rng(1));
  fluid.add_base_rate(Bandwidth::bps(250e3));
  simulator.run_until(Duration::seconds(5));
  EXPECT_DOUBLE_EQ(fluid.fluid_rate().bps(), 250e3);
  EXPECT_EQ(simulator.events_dispatched(), 0u);
  try {
    FluidFlow flow(simulator, Bandwidth::bps(250e3), 1, Duration::seconds(1),
                   Rng(2));
    ADD_FAILURE() << "a one-state flow was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "FluidFlow: need >= 2 states");
  }
}

TEST(FluidFlowTest, RejectsMalformedConfigs) {
  Simulator simulator;
  const auto expect_rejected = [&simulator](std::size_t states,
                                            Bandwidth rate, Duration holding,
                                            const char* message) {
    try {
      FluidFlow flow(simulator, rate, states, holding, Rng(2));
      ADD_FAILURE() << message << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), message);
    }
  };
  const Bandwidth rate = Bandwidth::bps(250e3);
  const Duration holding = Duration::millis(10);
  expect_rejected(0, rate, holding, "FluidFlow: need >= 2 states");
  expect_rejected(2, Bandwidth::bps(-1.0), holding,
                  "FluidFlow: negative mean rate");
  expect_rejected(2, rate, Duration::zero(),
                  "FluidFlow: non-positive holding time");
  expect_rejected(2, rate, Duration::millis(-10),
                  "FluidFlow: non-positive holding time");
}

TEST(FluidFlowTest, AttachAndStartBelongBeforeTheFirstStart) {
  Simulator simulator;
  FluidAggregate fluid(simulator, aggregate_config(1e6), Rng(1));
  FluidFlow flow(simulator, Bandwidth::bps(250e3), 2, Duration::millis(10),
                 Rng(2));
  flow.attach(fluid);
  flow.start(Duration::zero());
  try {
    flow.attach(fluid);
    ADD_FAILURE() << "attach after start was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "FluidFlow: attach after start");
  }
  try {
    flow.start(Duration::millis(1));
    ADD_FAILURE() << "a second start was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "FluidFlow: started twice");
  }
  // The rejected calls changed nothing: one aggregate, one start edge.
  simulator.run_until(Duration::zero());
  EXPECT_EQ(flow.edges(), 1u);
  EXPECT_DOUBLE_EQ(fluid.fluid_rate().bps(), 125e3);
}

TEST(FluidFlowTest, ModulatedTrajectoryIsPureFunctionOfSeed) {
  // The PDES contract: a replica constructed with the same (arguments,
  // seed) in another domain emits the identical trajectory, so fluid
  // demand crosses cuts without messages.
  std::vector<double> rates_a, rates_b;
  std::vector<std::uint64_t> edges_a, edges_b;
  for (int replica = 0; replica < 2; ++replica) {
    Simulator simulator;
    FluidAggregate fluid(simulator, aggregate_config(10e6), Rng(1));
    FluidFlow flow(simulator, /*mean_rate=*/Bandwidth::mbps(1),
                   /*states=*/4, /*mean_holding=*/Duration::millis(50),
                   Rng(0xFEED));
    flow.attach(fluid);
    flow.start(Duration::zero());
    auto& rates = replica == 0 ? rates_a : rates_b;
    auto& edges = replica == 0 ? edges_a : edges_b;
    for (int step = 1; step <= 20; ++step) {
      simulator.run_until(Duration::millis(25 * step));
      rates.push_back(fluid.fluid_rate().bps());  // the one flow's rate
      edges.push_back(flow.edges());
    }
  }
  EXPECT_EQ(rates_a, rates_b);
  EXPECT_EQ(edges_a, edges_b);
  EXPECT_GT(edges_a.back(), 2u);  // the chain actually moved
}

TEST(FluidFlowTest, EnvelopeConfigHasStationaryMeanAtPeak) {
  // Five states swinging +-50 % around 1 Mb/s: the rates are 0.5, 0.75,
  // 1, 1.25 and 1.5 Mb/s, and uniform jumps with a common holding time
  // make the stationary distribution uniform, so the time-average demand
  // is the mean rate.
  Simulator simulator;
  FluidAggregate fluid(simulator, aggregate_config(10e6), Rng(1));
  FluidFlow flow(simulator, Bandwidth::mbps(1), 5, Duration::millis(1),
                 Rng(7));
  flow.attach(fluid);
  flow.start(Duration::zero());
  std::set<double> rates;
  for (int step = 1; step <= 100'000; ++step) {
    simulator.run_until(Duration::millis(step));
    rates.insert(fluid.fluid_rate().bps());
  }
  EXPECT_EQ(rates, (std::set<double>{0.5e6, 0.75e6, 1e6, 1.25e6, 1.5e6}));
  EXPECT_GT(flow.edges(), 50'000u);
  // Utilization is the time-average demand over the 10 Mb/s capacity.
  EXPECT_NEAR(fluid.utilization(simulator.now()), 0.1, 0.001);
  flow.audit_verify();
}

TEST(FluidLinkTest, PacketsServeAtResidualRate) {
  Simulator simulator;
  LinkConfig config;
  config.rate = Bandwidth::bps(1e6);
  config.propagation = Duration::millis(10);
  config.buffer_packets = 8;
  Link link(simulator, config, Rng(1));
  FluidAggregate fluid(simulator, aggregate_config(1e6), Rng(2));
  fluid.add_base_rate(Bandwidth::bps(500e3));
  link.attach_fluid(fluid);

  std::vector<Duration> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(simulator.now()); });
  Packet p;
  p.size_bytes = 500;  // 4 ms at 1 Mb/s -> 8 ms at the residual 500 kb/s
  link.enqueue(std::move(p));
  drain(simulator);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], Duration::millis(18));
  link.audit_verify();
}

TEST(FluidLinkTest, AttachRejectsMismatchedCapacity) {
  Simulator simulator;
  LinkConfig config;
  config.rate = Bandwidth::bps(1e6);
  Link link(simulator, config, Rng(1));
  FluidAggregate wrong(simulator, aggregate_config(2e6), Rng(2));
  EXPECT_THROW(link.attach_fluid(wrong), std::invalid_argument);
  FluidAggregate right(simulator, aggregate_config(1e6), Rng(3));
  link.attach_fluid(right);
  EXPECT_THROW(link.attach_fluid(right), std::logic_error);  // double attach
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
  FluidAggregate fluid(simulator, aggregate_config(1e6), Rng(2));
  fluid.add_base_rate(Bandwidth::bps(600e3));
  link.attach_fluid(fluid);
  link.set_sink([](Packet&&) {});

  obs::MetricsRegistry registry;
  link.publish_metrics(registry, "lnk");
  // One packet: 500 B at the residual 400 kb/s = 10 ms busy in 1 s.
  Packet p;
  p.size_bytes = 500;
  link.enqueue(std::move(p));
  simulator.run_until(Duration::seconds(1));

  const obs::MetricsSnapshot snap = registry.snapshot(simulator.now());
  const double* utilization = obs::find_metric(snap, "lnk.utilization");
  ASSERT_NE(utilization, nullptr);
  EXPECT_NEAR(*utilization, 0.6 + 0.01, 1e-6);
  const double* fluid_rate = obs::find_metric(snap, "lnk.fluid_rate_bps");
  ASSERT_NE(fluid_rate, nullptr);
  EXPECT_DOUBLE_EQ(*fluid_rate, 600e3);
  const double* residual = obs::find_metric(snap, "lnk.residual_bps");
  ASSERT_NE(residual, nullptr);
  EXPECT_DOUBLE_EQ(*residual, 400e3);
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
  EXPECT_EQ(obs::find_metric(snap, "lnk.residual_bps"), nullptr);
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
  FluidAggregate fluid(simulator, aggregate_config(1e6), Rng(2));
  fluid.add_base_rate(Bandwidth::bps(600e3));
  link.attach_fluid(fluid);
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

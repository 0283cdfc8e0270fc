#include "sim/fluid.h"

#include <gtest/gtest.h>

#include <cmath>
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
  Simulator simulator;
  FluidAggregate fluid(simulator, aggregate_config(1e6), Rng(1));
  FluidFlowConfig config;
  config.peak_rate = Bandwidth::bps(300e3);
  config.period = Duration::seconds(1);
  config.duty = 0.25;
  config.phase = Duration::millis(100);
  FluidFlow flow(simulator, config, Rng(2));
  flow.attach(fluid);
  flow.start(Duration::zero());

  simulator.run_until(Duration::millis(50));  // before the first ON edge
  EXPECT_DOUBLE_EQ(fluid.fluid_rate().bps(), 0.0);
  simulator.run_until(Duration::millis(200));  // ON: [0.1 s, 0.35 s)
  EXPECT_DOUBLE_EQ(fluid.fluid_rate().bps(), 300e3);
  simulator.run_until(Duration::millis(500));  // OFF again
  EXPECT_DOUBLE_EQ(fluid.fluid_rate().bps(), 0.0);
  simulator.run_until(Duration::millis(1200));  // next cycle's ON span
  EXPECT_DOUBLE_EQ(fluid.fluid_rate().bps(), 300e3);
  EXPECT_EQ(flow.edges(), 3u);
  flow.audit_verify();
}

TEST(FluidFlowTest, ConstantFlowCostsNoEvents) {
  Simulator simulator;
  FluidAggregate fluid(simulator, aggregate_config(1e6), Rng(1));
  FluidFlowConfig config;
  config.peak_rate = Bandwidth::bps(250e3);  // period zero = constant from start
  FluidFlow flow(simulator, config, Rng(2));
  flow.attach(fluid);
  flow.start(Duration::zero());
  simulator.run_until(Duration::seconds(5));
  EXPECT_DOUBLE_EQ(fluid.fluid_rate().bps(), 250e3);
  EXPECT_LE(simulator.events_dispatched(), 1u);  // the single start edge
}

TEST(FluidFlowTest, ModulatedTrajectoryIsPureFunctionOfSeed) {
  // The PDES contract: a replica constructed with the same (config, seed)
  // in another domain emits the identical trajectory, so fluid demand
  // crosses cuts without messages.
  FluidFlowConfig config = FluidFlowConfig::envelope(
      /*peak_rate=*/Bandwidth::mbps(1), /*states=*/4, /*swing=*/0.5,
      /*mean_holding=*/Duration::millis(50));
  std::vector<double> rates_a, rates_b;
  std::vector<std::uint64_t> edges_a, edges_b;
  for (int replica = 0; replica < 2; ++replica) {
    Simulator simulator;
    FluidAggregate fluid(simulator, aggregate_config(10e6), Rng(1));
    FluidFlow flow(simulator, config, Rng(0xFEED));
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
  const FluidFlowConfig config =
      FluidFlowConfig::envelope(Bandwidth::mbps(1), 5, 0.4, Duration::seconds(1));
  ASSERT_EQ(config.state_count(), 5u);
  double mean_fraction = 0.0;
  for (const double f : config.state_rate_fraction) mean_fraction += f;
  mean_fraction /= static_cast<double>(config.state_count());
  // Uniform transitions + common holding time -> uniform stationary
  // distribution, so the arithmetic mean of the fractions is the
  // stationary mean rate.
  EXPECT_NEAR(mean_fraction, 1.0, 1e-12);
  for (std::size_t row = 0; row < 5; ++row) {
    double sum = 0.0;
    for (std::size_t col = 0; col < 5; ++col) {
      sum += config.transition[row * 5 + col];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(config.transition[row * 5 + row], 0.0);
  }
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

#include "sim/channel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/loss.h"
#include "runner/sweep.h"
#include "runner/sweep_io.h"
#include "scenario/scenarios.h"
#include "sim/fluid.h"
#include "sim/link.h"
#include "util/rng.h"
#include "tests/sim/sim_fixtures.h"

namespace bolot::sim {
namespace {

Packet make_packet(std::int64_t bytes, std::uint64_t id = 0) {
  Packet p;
  p.id = id;
  p.size_bytes = bytes;
  return p;
}

LinkConfig basic_config() {
  LinkConfig config;
  config.rate = Bandwidth::bps(128e3);
  config.propagation = Duration::millis(10);
  config.buffer_packets = 4;
  return config;
}

TEST(MarkovChannelConfigTest, ValidateRejectsMalformedConfigs) {
  // p and q outside [0, 1] are unrepresentable: the checked Probability
  // constructor rejects them before a config can hold one.
  EXPECT_THROW(Probability::checked(1.5), std::invalid_argument);
  EXPECT_THROW(Probability::checked(-0.1), std::invalid_argument);

  // from_loss_targets names each target it cannot meet.
  const auto error = [](Probability ulp, double plg) {
    try {
      GilbertChannelConfig::from_loss_targets(ulp, plg);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const std::string prefix = "GilbertChannelConfig: target ";
  EXPECT_EQ(error(Probability::checked(0.0), 5.0),
            prefix + "ulp must be in (0, 1)");
  EXPECT_EQ(error(Probability::checked(1.0), 5.0),
            prefix + "ulp must be in (0, 1)");
  EXPECT_EQ(error(Probability::checked(0.08), 0.5),
            prefix + "plg must be >= 1");
  // ulp = 0.9, plg = 1 -> p = 9.
  EXPECT_EQ(error(Probability::checked(0.9), 1.0),
            prefix + "(ulp, plg) pair is infeasible: p > 1");
}

TEST(MarkovChannelConfigTest, GilbertElliottLayout) {
  // The chain draws one uniform per packet and goes bad exactly when the
  // draw reaches 1 - p from the good state or q from the bad one: the
  // two-entry cumulative rows of the transition matrix
  // [[1-p, p], [q, 1-q]].
  const GilbertChannelConfig config{Probability::checked(0.02),
                                    Probability::checked(0.3)};
  GilbertChannel channel(config, Rng(5));
  Rng reference(5);
  bool bad = false;
  for (int i = 0; i < 20000; ++i) {
    const double u = reference.uniform();
    bad = u >= (bad ? 0.3 : Probability::checked(0.02).complement().value());
    ASSERT_EQ(channel.advance(), bad) << "packet " << i;
    ASSERT_EQ(channel.state(), bad ? 1u : 0u);
  }
  EXPECT_GT(channel.state_packets(1), 0u);

  // The corners: p = 0 never leaves the good state, p = 1 with q = 0
  // goes bad on the first packet and stays.
  GilbertChannel never(GilbertChannelConfig{Probability::zero(),
                                            Probability::checked(0.5)},
                       Rng(1));
  GilbertChannel always(GilbertChannelConfig{Probability::one(),
                                             Probability::zero()},
                        Rng(1));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never.advance());
    EXPECT_TRUE(always.advance());
  }
}

TEST(MarkovChannelConfigTest, FromLossTargetsSolvesPAndQ) {
  // q = 1/plg, p = q*ulp/(1-ulp): ulp = 0.08, plg = 5 -> q = 0.2,
  // p = 0.2*0.08/0.92.
  const auto config =
      GilbertChannelConfig::from_loss_targets(Probability::checked(0.08), 5.0);
  EXPECT_NEAR(config.q.value(), 0.2, 1e-12);
  EXPECT_NEAR(config.p.value(), 0.2 * 0.08 / 0.92, 1e-12);
  // Stationary loss p/(p+q) equals the target ulp.
  const double p = config.p.value();
  const double q = config.q.value();
  EXPECT_NEAR(p / (p + q), 0.08, 1e-12);
}

TEST(MarkovChannelTest, AdvanceAccountingAndAudit) {
  GilbertChannel channel(
      GilbertChannelConfig::from_loss_targets(Probability::checked(0.08), 5.0),
      Rng(7));
  const int n = 20000;
  std::uint64_t drops = 0;
  for (int i = 0; i < n; ++i) {
    if (channel.advance()) ++drops;
  }
  EXPECT_EQ(channel.total_packets(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(channel.state_packets(0) + channel.state_packets(1),
            static_cast<std::uint64_t>(n));
  // The good state never drops, the bad state always does.
  EXPECT_EQ(channel.state_packets(1), drops);
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.08, 0.02);
}

/// Feeds `n` paced probes through a fast link carrying `channel` and
/// returns the per-packet loss indicator sequence (1 = channel drop), in
/// send order.
std::vector<std::uint8_t> channel_link_losses(const GilbertChannelConfig& channel,
                                              std::uint64_t n,
                                              std::uint64_t seed,
                                              LinkStats* stats_out = nullptr) {
  Simulator simulator;
  LinkConfig config;
  config.rate = Bandwidth::bps(100e6);  // service 5.76 us for 72 B
  config.propagation = Duration::millis(1);
  config.buffer_packets = 64;
  config.channel = channel;
  Link link(simulator, config, Rng(seed));

  std::vector<std::uint8_t> losses(n, 0);
  link.set_sink([](Packet&&) {});
  link.set_drop_hook([&losses](const Packet& p, DropCause cause) {
    ASSERT_EQ(cause, DropCause::kChannel);
    losses[p.id] = 1;
  });

  // Pace the feed slightly slower than the service rate so the queue
  // never overflows and every offered packet reaches the channel stage.
  std::uint64_t next = 0;
  std::function<void()> feed = [&] {
    link.enqueue(make_packet(72, next));
    if (++next < n) simulator.schedule_in(Duration::millis(0.006), feed);
  };
  feed();
  drain(simulator);

  link.audit_verify();
  const LinkStats& stats = link.stats();
  EXPECT_EQ(stats.offered, n);
  EXPECT_EQ(stats.overflow_drops, 0u);
  // audit_verify above holds the channel's own packet counters to these
  // stats.
  EXPECT_EQ(stats.delivered + stats.channel_drops, n);
  if (stats_out != nullptr) *stats_out = stats;
  return losses;
}

TEST(ChannelLinkTest, GilbertChannelMatchesGenerateGilbertEndToEnd) {
  // The same (p, q) drive a GilbertChannel through the full link datapath
  // and analysis::generate_gilbert directly; the two loss processes must
  // be statistically indistinguishable and both must fit back to (p, q).
  analysis::GilbertFit truth;
  truth.p = 0.03;
  truth.q = 0.4;
  const std::uint64_t n = 400000;
  const auto via_link = channel_link_losses(
      GilbertChannelConfig{Probability::checked(truth.p),
                           Probability::checked(truth.q)},
      n, 53);
  Rng rng(47);
  const auto via_generator = analysis::generate_gilbert(truth, n, rng);

  const analysis::GilbertFit link_fit = analysis::fit_gilbert(via_link);
  EXPECT_NEAR(link_fit.p, truth.p, 0.004);
  EXPECT_NEAR(link_fit.q, truth.q, 0.01);
  EXPECT_FALSE(link_fit.degenerate);

  const auto link_stats = analysis::loss_stats(via_link);
  const auto gen_stats = analysis::loss_stats(via_generator);
  EXPECT_NEAR(link_stats.ulp, gen_stats.ulp, 0.01);
  EXPECT_NEAR(link_stats.clp, gen_stats.clp, 0.02);
  EXPECT_NEAR(link_stats.mean_burst_length, gen_stats.mean_burst_length,
              0.1 * gen_stats.mean_burst_length);
}

TEST(ChannelLinkTest, TargetPlgFiveMeasuredWithinTenPercent) {
  // Acceptance property: a Gilbert channel built for
  // (ulp = 0.08, plg = 5) measures those targets within 10% over 10^6
  // probes through the simulated link.
  const std::uint64_t n = 1000000;
  const auto losses = channel_link_losses(
      GilbertChannelConfig::from_loss_targets(Probability::checked(0.08), 5.0),
      n, 1993);
  const auto stats = analysis::loss_stats(losses);
  EXPECT_EQ(stats.probes, n);
  EXPECT_NEAR(stats.ulp, 0.08, 0.008);
  EXPECT_NEAR(stats.mean_burst_length, 5.0, 0.5);
  EXPECT_NEAR(stats.plg_from_clp, 5.0, 0.5);
  const auto gap = stats.loss_gap();
  EXPECT_TRUE(gap.consistent);
}

TEST(ChannelLinkTest, JitterPreservesFifoOrder) {
  // A kMd1Wait fluid aggregate adds a sampled wait to each packet after
  // service, which could put a packet's arrival before its predecessor's;
  // the link clamps each arrival to the latest one already on the flight
  // ring, so delivery stays FIFO.  At this seed some waits do clamp: a
  // packet arrives at the very nanosecond of the packet before it.
  Simulator simulator;
  LinkConfig config = basic_config();
  config.buffer_packets = 64;
  FluidAggregateConfig fluid_config;
  fluid_config.capacity = config.rate;
  fluid_config.queue_model = FluidQueueModel::kMd1Wait;
  FluidAggregate fluid(simulator, fluid_config, Rng(3));
  fluid.add_base_rate(config.rate * 0.8);
  Link link(simulator, config, Rng(3));
  link.attach_fluid(fluid);
  std::vector<std::uint64_t> ids;
  std::vector<Duration> arrivals;
  link.set_sink([&](Packet&& p) {
    ids.push_back(p.id);
    arrivals.push_back(simulator.now());
  });
  for (std::uint64_t i = 0; i < 50; ++i) link.enqueue(make_packet(72, i));
  drain(simulator);
  ASSERT_EQ(ids.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(ids[i], i);
  std::size_t clamped = 0;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1], arrivals[i]);
    if (arrivals[i - 1] == arrivals[i]) ++clamped;
  }
  EXPECT_GT(clamped, 0u);
  link.audit_verify();
}

TEST(ChannelLinkTest, ChannelFreeLinkUnchanged) {
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  std::uint64_t delivered = 0;
  link.set_sink([&delivered](Packet&&) { ++delivered; });
  for (std::uint64_t i = 0; i < 4; ++i) link.enqueue(make_packet(72, i));
  drain(simulator);
  link.audit_verify();
  EXPECT_EQ(delivered, 4u);
  EXPECT_EQ(link.stats().channel_drops, 0u);
}

TEST(ChannelLinkTest, SweepArtifactsIdenticalAcrossThreadCounts) {
  // A sweep over bottleneck channel overrides serializes to the same
  // deterministic artifact no matter the pool size (the sweep runner's
  // bit-identical contract extended to the channel stage).
  std::vector<runner::RunSpec> specs;
  for (double plg : {1.0, 2.0, 5.0, 10.0}) {
    runner::RunSpec spec;
    spec.label = "plg=" + std::to_string(static_cast<int>(plg));
    spec.params = {{"target_plg", plg}, {"seed", 424242 + plg}};
    specs.push_back(std::move(spec));
  }
  const auto job = [](const runner::RunSpec& spec) {
    scenario::ProbePlan plan;
    plan.delta = Duration::millis(20);
    plan.duration = Duration::seconds(10);
    plan.seed = static_cast<std::uint64_t>(spec.param("seed"));
    scenario::ScenarioOverrides overrides;
    overrides.bottleneck_channel =
        GilbertChannelConfig::from_loss_targets(Probability::checked(0.05),
                                                spec.param("target_plg"));
    return runner::scenario_metrics(scenario::run_inria_umd(plan, overrides));
  };

  runner::SweepOptions options;
  options.name = "channel_determinism";
  options.base_seed = 424242;
  options.threads = 1;
  const auto serial = runner::run_sweep(specs, job, options);
  options.threads = 4;
  const auto pooled = runner::run_sweep(specs, job, options);
  const auto replay = runner::run_sweep(specs, job, options);

  EXPECT_EQ(runner::sweep_to_json(serial), runner::sweep_to_json(pooled));
  EXPECT_EQ(runner::sweep_to_json(pooled), runner::sweep_to_json(replay));
  for (const runner::RunResult& run : serial.runs) {
    ASSERT_FALSE(run.failed) << run.error;
    EXPECT_GT(*run.metric("probes"), 0.0);
  }
}

}  // namespace
}  // namespace bolot::sim

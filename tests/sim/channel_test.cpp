#include "sim/channel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "analysis/loss.h"
#include "runner/sweep.h"
#include "runner/sweep_io.h"
#include "scenario/scenarios.h"
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
  MarkovChannelConfig config;
  EXPECT_THROW(config.validate(), std::invalid_argument);  // no states

  config = MarkovChannelConfig::gilbert_elliott(Probability::checked(0.1),
                                                Probability::checked(0.4));
  config.transitions.pop_back();  // wrong matrix size
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = MarkovChannelConfig::gilbert_elliott(Probability::checked(0.1),
                                                Probability::checked(0.4));
  config.transitions = {0.5, 0.4, 0.4, 0.6};  // row 0 sums to 0.9
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = MarkovChannelConfig::gilbert_elliott(Probability::checked(0.1),
                                                Probability::checked(0.4));
  config.transitions[0] = -0.1;
  config.transitions[1] = 1.1;  // entries outside [0, 1]
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = MarkovChannelConfig::gilbert_elliott(Probability::checked(0.1),
                                                Probability::checked(0.4));
  config.initial_state = 2;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  // Out-of-range drop probabilities are unrepresentable now: the checked
  // Probability constructor rejects them before a state can hold one.
  EXPECT_THROW(Probability::checked(1.5), std::invalid_argument);

  config = MarkovChannelConfig::gilbert_elliott(Probability::checked(0.1),
                                                Probability::checked(0.4));
  config.states[0].extra_delay = Duration::millis(-1);
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(MarkovChannelConfigTest, GilbertElliottLayout) {
  const auto config = MarkovChannelConfig::gilbert_elliott(
      Probability::checked(0.02), Probability::checked(0.3),
      Probability::checked(0.001), Probability::checked(0.9), Duration::millis(7));
  ASSERT_EQ(config.state_count(), 2u);
  EXPECT_DOUBLE_EQ(config.transition(0, 1), 0.02);  // p = P(good -> bad)
  EXPECT_DOUBLE_EQ(config.transition(0, 0), 0.98);
  EXPECT_DOUBLE_EQ(config.transition(1, 0), 0.3);   // q = P(bad -> good)
  EXPECT_DOUBLE_EQ(config.transition(1, 1), 0.7);
  EXPECT_DOUBLE_EQ(config.states[0].drop_probability.value(), 0.001);
  EXPECT_DOUBLE_EQ(config.states[1].drop_probability.value(), 0.9);
  EXPECT_EQ(config.states[1].extra_delay, Duration::millis(7));
  EXPECT_EQ(config.initial_state, 0u);
}

TEST(MarkovChannelConfigTest, FromLossTargetsSolvesPAndQ) {
  // q = 1/plg, p = q*ulp/(1-ulp): ulp = 0.08, plg = 5 -> q = 0.2,
  // p = 0.2*0.08/0.92.
  const auto config = MarkovChannelConfig::from_loss_targets(Probability::checked(0.08), 5.0);
  EXPECT_NEAR(config.transition(1, 0), 0.2, 1e-12);
  EXPECT_NEAR(config.transition(0, 1), 0.2 * 0.08 / 0.92, 1e-12);
  EXPECT_DOUBLE_EQ(config.states[0].drop_probability.value(), 0.0);
  EXPECT_DOUBLE_EQ(config.states[1].drop_probability.value(), 1.0);
  // Stationary loss p/(p+q) equals the target ulp.
  const double p = config.transition(0, 1);
  const double q = config.transition(1, 0);
  EXPECT_NEAR(p / (p + q), 0.08, 1e-12);

  EXPECT_THROW(MarkovChannelConfig::from_loss_targets(Probability::checked(0.0), 5.0),
               std::invalid_argument);
  EXPECT_THROW(MarkovChannelConfig::from_loss_targets(Probability::checked(1.0), 5.0),
               std::invalid_argument);
  EXPECT_THROW(MarkovChannelConfig::from_loss_targets(Probability::checked(0.08), 0.5),
               std::invalid_argument);
  // ulp = 0.9, plg = 1 -> p = 9: infeasible.
  EXPECT_THROW(MarkovChannelConfig::from_loss_targets(Probability::checked(0.9), 1.0),
               std::invalid_argument);
}

TEST(MarkovChannelTest, AdvanceAccountingAndAudit) {
  MarkovChannel channel(MarkovChannelConfig::from_loss_targets(Probability::checked(0.08), 5.0),
                        Rng(7));
  const int n = 20000;
  std::uint64_t drops = 0;
  for (int i = 0; i < n; ++i) {
    if (channel.advance().drop) ++drops;
  }
  EXPECT_EQ(channel.total_packets(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(channel.state_packets(0) + channel.state_packets(1),
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(channel.total_drops(), drops);
  // Loss-only Gilbert-Elliott: the good state never drops, the bad state
  // always does.
  EXPECT_EQ(channel.state_drops(0), 0u);
  EXPECT_EQ(channel.state_drops(1), channel.state_packets(1));
  EXPECT_NO_THROW(channel.audit_verify());
}

TEST(MarkovChannelTest, SingleStateChannelIsBernoulli) {
  MarkovChannelConfig config;
  config.states = {ChannelState{Probability::checked(0.3), Duration::zero(),
                                Duration::zero()}};
  config.transitions = {1.0};
  MarkovChannel channel(config, Rng(11));
  const int n = 100000;
  int drops = 0;
  for (int i = 0; i < n; ++i) {
    if (channel.advance().drop) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.3, 0.01);
  EXPECT_EQ(channel.state(), 0u);
}

/// Feeds `n` paced probes through a fast link carrying `channel` and
/// returns the per-packet loss indicator sequence (1 = channel drop), in
/// send order.
std::vector<std::uint8_t> channel_link_losses(const MarkovChannelConfig& channel,
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
  link.add_drop_hook([&losses](const Packet& p, DropCause cause) {
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
  EXPECT_EQ(stats.delivered + stats.channel_drops, n);
  EXPECT_NE(link.channel(), nullptr);
  if (link.channel() != nullptr) {
    EXPECT_EQ(link.channel()->total_packets(), n);
    EXPECT_EQ(link.channel()->total_drops(), stats.channel_drops);
  }
  if (stats_out != nullptr) *stats_out = stats;
  return losses;
}

TEST(ChannelLinkTest, GilbertChannelMatchesGenerateGilbertEndToEnd) {
  // The same (p, q) drive a MarkovChannel through the full link datapath
  // and analysis::generate_gilbert directly; the two loss processes must
  // be statistically indistinguishable and both must fit back to (p, q).
  analysis::GilbertFit truth;
  truth.p = 0.03;
  truth.q = 0.4;
  const std::uint64_t n = 400000;
  const auto via_link = channel_link_losses(
      MarkovChannelConfig::gilbert_elliott(Probability::checked(truth.p),
                                           Probability::checked(truth.q)),
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
  // Acceptance property: a Gilbert-Elliott channel built for
  // (ulp = 0.08, plg = 5) measures those targets within 10% over 10^6
  // probes through the simulated link.
  const std::uint64_t n = 1000000;
  const auto losses = channel_link_losses(
      MarkovChannelConfig::from_loss_targets(Probability::checked(0.08), 5.0), n, 1993);
  const auto stats = analysis::loss_stats(losses);
  EXPECT_EQ(stats.probes, n);
  EXPECT_NEAR(stats.ulp, 0.08, 0.008);
  EXPECT_NEAR(stats.mean_burst_length, 5.0, 0.5);
  EXPECT_NEAR(stats.plg_from_clp, 5.0, 0.5);
  const auto gap = stats.loss_gap();
  EXPECT_TRUE(gap.consistent);
}

TEST(ChannelLinkTest, BadStateExtraDelayAddsToPropagation) {
  // p = 1, q = 0: the chain moves to the bad state on the first advance
  // and stays; a lossless bad state with 5 ms extra delay shifts every
  // arrival by exactly 5 ms.
  Simulator simulator;
  LinkConfig config = basic_config();
  config.channel = MarkovChannelConfig::gilbert_elliott(
      Probability::checked(1.0), Probability::checked(0.0),
      Probability::checked(0.0), Probability::checked(0.0), Duration::millis(5));
  Link link(simulator, config, Rng(1));
  std::vector<Duration> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(simulator.now()); });
  link.enqueue(make_packet(72));  // service 4.5 ms + 10 ms propagation
  drain(simulator);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], Duration::millis(19.5));
  EXPECT_EQ(link.stats().channel_drops, 0u);
}

TEST(ChannelLinkTest, JitterPreservesFifoOrder) {
  // Exponential jitter in the bad state could reorder arrivals; the link
  // clamps each arrival to its predecessor's, so delivery stays FIFO.
  Simulator simulator;
  LinkConfig config = basic_config();
  config.buffer_packets = 64;
  MarkovChannelConfig channel =
      MarkovChannelConfig::gilbert_elliott(
      Probability::checked(0.5), Probability::checked(0.5),
      Probability::checked(0.0), Probability::checked(0.0));
  channel.states[1].extra_delay_jitter = Duration::millis(30);
  config.channel = channel;
  Link link(simulator, config, Rng(3));
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
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1], arrivals[i]);
  }
  link.audit_verify();
}

TEST(ChannelLinkTest, ChannelFreeLinkUnchanged) {
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  EXPECT_EQ(link.channel(), nullptr);
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
        MarkovChannelConfig::from_loss_targets(Probability::checked(0.05),
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

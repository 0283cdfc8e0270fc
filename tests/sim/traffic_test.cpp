#include "sim/traffic.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/sim/sim_fixtures.h"

namespace bolot::sim {
namespace {

/// A 100 Mb/s two-node path whose receiver records every arrival.
struct TwoNodePath {
  TwoNodePath() : net(simulator) {
    src = net.add_node("src");
    dst = net.add_node("dst");
    LinkConfig config;
    config.rate = Bandwidth::bps(100e6);
    config.propagation = Duration::micros(10);
    config.buffer_packets = 100000;
    net.add_duplex_link(src, dst, config);
    net.set_receiver(dst, [this](Packet&& p) {
      ++received;
      bytes += p.size_bytes;
      arrivals.push_back(simulator.now());
      kinds.push_back(p.kind);
    });
  }

  Simulator simulator;
  Network net;
  NodeId src = 0, dst = 0;
  int received = 0;
  std::int64_t bytes = 0;
  std::vector<Duration> arrivals;
  std::vector<PacketKind> kinds;
};

struct TrafficFixture : public ::testing::Test, public TwoNodePath {};

TEST_F(TrafficFixture, CbrSendsAtFixedInterval) {
  CbrSource source(simulator, net, src, dst, 1, PacketKind::kOther,
                   Duration::millis(10), ByteSize::bytes(72));
  source.start(Duration::zero());
  simulator.run_until(Duration::millis(95));
  EXPECT_EQ(source.packets_sent(), 10u);  // t = 0, 10, ..., 90
  EXPECT_EQ(received, 10);
  ASSERT_GE(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], Duration::millis(10));
}

TEST_F(TrafficFixture, StartTwiceIsIdempotent) {
  CbrSource source(simulator, net, src, dst, 1, PacketKind::kOther,
                   Duration::millis(10), ByteSize::bytes(72));
  source.start(Duration::zero());
  source.start(Duration::zero());
  simulator.run_until(Duration::millis(5));
  EXPECT_EQ(source.packets_sent(), 1u);
}

TEST_F(TrafficFixture, PoissonRateMatchesConfiguredMean) {
  PoissonSource source(simulator, net, src, dst, 1, PacketKind::kInteractive,
                       Rng(7), Duration::millis(5), ByteSize::bytes(64));
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(100));
  // 100 s at one packet per 5 ms -> ~20000; allow 5% statistical slack.
  EXPECT_NEAR(static_cast<double>(source.packets_sent()), 20000.0, 1000.0);
  EXPECT_EQ(kinds.front(), PacketKind::kInteractive);
}

TEST_F(TrafficFixture, BurstSourceEmitsBurstsOfConfiguredMeanLength) {
  BurstConfig config;
  config.mean_burst_gap = Duration::millis(100);
  config.mean_burst_packets = 6.0;
  config.packet = ByteSize::bytes(512);
  config.in_burst_spacing = Duration::micros(41);
  BurstSource source(simulator, net, src, dst, 1, PacketKind::kBulk, Rng(11),
                     config);
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(200));
  // Count bursts by grouping arrivals separated by > 10 ms.
  std::size_t bursts = arrivals.empty() ? 0 : 1;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i] - arrivals[i - 1] > Duration::millis(10)) ++bursts;
  }
  ASSERT_GT(bursts, 100u);
  const double mean_length =
      static_cast<double>(arrivals.size()) / static_cast<double>(bursts);
  EXPECT_NEAR(mean_length, 6.0, 0.9);
}

TEST_F(TrafficFixture, FtpSessionPacesAtConfiguredShare) {
  FtpSessionConfig config;
  config.mean_session = Duration::seconds(2);
  config.mean_idle = Duration::seconds(2);
  config.pace_load = 0.5;
  config.bottleneck = Bandwidth::bps(128e3);
  config.packet = ByteSize::bytes(512);
  FtpSessionSource source(simulator, net, src, dst, 1, PacketKind::kBulk,
                          Rng(13), config);
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(400));
  // Average rate ~ on_fraction (0.5) * pace (0.5 * 128 kb/s) = 32 kb/s.
  const double avg_bps =
      static_cast<double>(net.link_at(0).stats().bytes_delivered) * 8.0 /
      400.0;
  EXPECT_NEAR(avg_bps, 32e3, 6e3);
  // Within a session, spacing is the pace interval: 4096 bits at 64 kb/s.
  Duration expected =
      Bandwidth::bps(0.5 * 128e3).transmission_time(ByteSize::bytes(512));
  std::size_t paced = 0, gaps = 0;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    const Duration gap = arrivals[i] - arrivals[i - 1];
    if ((gap - expected).millis() < 0.01 && (expected - gap).millis() < 0.01) {
      ++paced;
    }
    ++gaps;
  }
  EXPECT_GT(static_cast<double>(paced) / static_cast<double>(gaps), 0.8);
}

TEST_F(TrafficFixture, OnOffAlternates) {
  OnOffConfig config;
  config.mean_on = Duration::millis(100);
  config.mean_off = Duration::millis(100);
  config.on_interval = Duration::millis(5);
  config.packet = ByteSize::bytes(512);
  OnOffSource source(simulator, net, src, dst, 1, PacketKind::kBulk, Rng(17),
                     config);
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(60));
  // ~50% duty cycle at one packet per 5 ms -> ~6000 packets in 60 s.
  EXPECT_NEAR(static_cast<double>(source.packets_sent()), 6000.0, 1200.0);
  // There must exist both short (on) and long (off) gaps.
  bool has_short = false, has_long = false;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    const Duration gap = arrivals[i] - arrivals[i - 1];
    if (gap <= Duration::millis(6)) has_short = true;
    if (gap >= Duration::millis(50)) has_long = true;
  }
  EXPECT_TRUE(has_short);
  EXPECT_TRUE(has_long);
}

TEST_F(TrafficFixture, ParetoOnOffKeepsMeanButFattensTail) {
  // Same configured means, heavy-tailed periods: the longest observed ON
  // period should dwarf the exponential case while the emission rate
  // stays comparable.
  const auto longest_on = [](double shape, std::uint64_t seed,
                             std::uint64_t& sent) {
    TwoNodePath path;
    OnOffConfig config;
    config.mean_on = Duration::millis(200);
    config.mean_off = Duration::millis(200);
    config.on_interval = Duration::millis(5);
    config.pareto_shape = shape;
    OnOffSource source(path.simulator, path.net, path.src, path.dst,
                       static_cast<std::uint32_t>(seed), PacketKind::kBulk,
                       Rng(seed), config);
    source.start(Duration::zero());
    path.simulator.run_until(Duration::seconds(300));
    sent = source.packets_sent();
    // Longest run of arrivals spaced at the ON interval.
    const std::vector<Duration>& arrivals = path.arrivals;
    Duration longest;
    Duration run_start = arrivals.empty() ? Duration::zero() : arrivals[0];
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      if (arrivals[i] - arrivals[i - 1] > Duration::millis(6)) {
        longest = std::max(longest, arrivals[i - 1] - run_start);
        run_start = arrivals[i];
      }
    }
    return longest;
  };
  std::uint64_t sent_exp = 0, sent_pareto = 0;
  const Duration exp_longest = longest_on(0.0, 101, sent_exp);
  const Duration pareto_longest = longest_on(1.2, 101, sent_pareto);
  EXPECT_GT(pareto_longest, exp_longest * 2);
  // Rates within a factor ~3 (heavy tails make the sample mean noisy).
  EXPECT_GT(static_cast<double>(sent_pareto),
            0.3 * static_cast<double>(sent_exp));
}

/// Expects `make()` to throw std::invalid_argument saying exactly `what`.
template <class Make>
void expect_rejected(const char* what, Make make) {
  try {
    make();
    ADD_FAILURE() << "accepted; expected: " << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), what);
  }
}

TEST_F(TrafficFixture, RejectsBadConfigs) {
  expect_rejected("PoissonSource: mean must be positive", [&] {
    PoissonSource(simulator, net, src, dst, 1, PacketKind::kOther, Rng(1),
                  Duration::zero(), ByteSize::bytes(72));
  });
  BurstConfig no_gap;
  no_gap.mean_burst_gap = Duration::zero();
  expect_rejected("BurstSource: burst gap must be positive", [&] {
    BurstSource(simulator, net, src, dst, 1, PacketKind::kBulk, Rng(1),
                no_gap);
  });
  for (const double bad : {0.5, std::nan(""), HUGE_VAL}) {
    BurstConfig burst;
    burst.mean_burst_packets = bad;
    try {
      BurstSource(simulator, net, src, dst, 1, PacketKind::kBulk, Rng(1),
                  burst);
      ADD_FAILURE() << "mean_burst_packets = " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(),
                   "BurstSource: mean_burst_packets must be finite and >= 1");
    }
  }
  const auto make_session = [&](const FtpSessionConfig& session) {
    return [&, session] {
      FtpSessionSource(simulator, net, src, dst, 1, PacketKind::kBulk, Rng(1),
                       session);
    };
  };
  for (Duration FtpSessionConfig::*period :
       {&FtpSessionConfig::mean_session, &FtpSessionConfig::mean_idle}) {
    FtpSessionConfig session;
    session.*period = Duration::zero();
    expect_rejected("FtpSessionSource: periods must be positive",
                    make_session(session));
  }
  // NaN passed `pace_load <= 0` and reached the pace interval's integer
  // cast; an infinite load paced at zero spacing.
  for (const double bad : {0.0, std::nan(""), HUGE_VAL}) {
    SCOPED_TRACE(bad);
    FtpSessionConfig session;
    session.pace_load = bad;
    expect_rejected("FtpSessionSource: pacing must be finite and positive",
                    make_session(session));
  }
  // An infinite bottleneck passed `is_positive()` and paced at zero
  // spacing: run_until never returned.
  for (const double bad : {0.0, std::nan(""), HUGE_VAL}) {
    SCOPED_TRACE(bad);
    FtpSessionConfig session;
    session.bottleneck = Bandwidth::bps(bad);
    expect_rejected("FtpSessionSource: pacing must be finite and positive",
                    make_session(session));
  }
}

TEST_F(TrafficFixture, OnOffValidation) {
  for (Duration OnOffConfig::*period :
       {&OnOffConfig::mean_on, &OnOffConfig::mean_off,
        &OnOffConfig::on_interval}) {
    OnOffConfig config;
    config.*period = Duration::zero();
    expect_rejected("OnOffSource: periods must be positive", [&] {
      OnOffSource(simulator, net, src, dst, 1, PacketKind::kBulk, Rng(1),
                  config);
    });
  }
  // A NaN or infinite shape passed construction and threw from the first
  // Pareto draw, mid-run.
  for (const double bad : {-1.0, std::nan(""), HUGE_VAL}) {
    SCOPED_TRACE(bad);
    OnOffConfig config;
    config.pareto_shape = bad;
    expect_rejected("OnOffSource: pareto_shape must be finite and >= 0", [&] {
      OnOffSource(simulator, net, src, dst, 1, PacketKind::kBulk, Rng(1),
                  config);
    });
  }
}

TEST_F(TrafficFixture, ModulatedPoissonAverageRateMatches) {
  ModulatedPoissonConfig config;
  config.mean_interarrival = Duration::millis(10);
  config.relative_amplitude = 0.6;
  config.period = Duration::seconds(20);
  ModulatedPoissonSource source(simulator, net, src, dst, 1,
                                PacketKind::kInteractive, Rng(23), config);
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(200));
  // Average over whole periods: ~100 packets/s.
  EXPECT_NEAR(static_cast<double>(source.packets_sent()) / 200.0, 100.0, 8.0);
}

TEST_F(TrafficFixture, ModulatedPoissonRateOscillates) {
  ModulatedPoissonConfig config;
  config.mean_interarrival = Duration::millis(5);
  config.relative_amplitude = 0.8;
  config.period = Duration::seconds(40);
  ModulatedPoissonSource source(simulator, net, src, dst, 1,
                                PacketKind::kInteractive, Rng(29), config);
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(400));
  // Bin arrivals per quarter-period: peak bins must clearly exceed
  // trough bins.
  std::vector<int> bins(40, 0);
  for (const auto at : arrivals) {
    const auto bin = static_cast<std::size_t>(at.seconds() / 10.0);
    if (bin < bins.size()) ++bins[bin];
  }
  // Phase: rate max near t = period/4 + k*period (10 s, 50 s, ...),
  // min near 30 s, 70 s, ...  Compare aggregates of those bins.
  int peak = 0, trough = 0;
  for (std::size_t b = 0; b < bins.size(); ++b) {
    const double mid_s = 10.0 * static_cast<double>(b) + 5.0;
    const double phase = std::fmod(mid_s, 40.0);
    if (phase >= 5.0 && phase < 15.0) peak += bins[b];
    if (phase >= 25.0 && phase < 35.0) trough += bins[b];
  }
  EXPECT_GT(peak, trough * 2);
}

TEST_F(TrafficFixture, ModulatedPoissonValidation) {
  const auto make = [&](const ModulatedPoissonConfig& config) {
    return [&, config] {
      ModulatedPoissonSource(simulator, net, src, dst, 1,
                             PacketKind::kInteractive, Rng(1), config);
    };
  };
  for (Duration ModulatedPoissonConfig::*timing :
       {&ModulatedPoissonConfig::mean_interarrival,
        &ModulatedPoissonConfig::period}) {
    ModulatedPoissonConfig config;
    config.*timing = Duration::zero();
    expect_rejected("ModulatedPoissonSource: bad timing", make(config));
  }
  // A NaN amplitude failed both `< 0` and `>= 1` and was accepted.
  for (const double bad : {1.0, -0.1, std::nan("")}) {
    SCOPED_TRACE(bad);
    ModulatedPoissonConfig config;
    config.relative_amplitude = bad;
    expect_rejected("ModulatedPoissonSource: amplitude outside [0, 1)",
                    make(config));
  }
}

TEST_F(TrafficFixture, PacketIdsAreUniquePerSource) {
  CbrSource source(simulator, net, src, dst, 7, PacketKind::kOther,
                   Duration::millis(1), ByteSize::bytes(72));
  std::vector<std::uint64_t> ids;
  net.set_receiver(dst, [&ids](Packet&& p) {
    EXPECT_EQ(p.flow, 7u);
    EXPECT_EQ(p.size_bytes, 72);
    ids.push_back(p.id);
  });
  source.start(Duration::zero());
  simulator.run_until(Duration::millis(100));
  EXPECT_GT(source.packets_sent(), 50u);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

}  // namespace
}  // namespace bolot::sim

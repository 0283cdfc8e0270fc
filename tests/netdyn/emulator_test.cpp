// Real-time integration tests: the real prober, through the real path
// emulator, to the real echo server — all over loopback.  Timing
// assertions are one-sided where the OS scheduler can stretch things.
#include "netdyn/emulator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "analysis/loss.h"
#include "analysis/stats.h"
#include "netdyn/echo_server.h"
#include "netdyn/prober.h"
#include "nettime/clock.h"
#include "tests/netdyn/echo_loop.h"

namespace bolot::netdyn {
namespace {

TEST(PathEmulatorTest, AddsConfiguredPropagationDelay) {
  SystemClock clock;
  EchoServer echo(0, clock);
  const std::jthread echoing = echo_loop(echo);

  PathEmulatorConfig config;
  config.target = make_endpoint("127.0.0.1", echo.port());
  config.one_way_delay = Duration::millis(30);
  config.rate = Bandwidth::bps(0.0);  // isolate the propagation component
  PathEmulator wan(0, config);
  wan.start();

  ProberConfig probe_config;
  probe_config.delta = Duration::millis(20);
  probe_config.probe_count = 30;
  probe_config.drain = Duration::millis(300);
  Prober prober(clock, probe_config);
  const auto trace = prober.run(make_endpoint("127.0.0.1", wan.port()));

  ASSERT_GT(trace.received_count(), 25u);
  const auto rtts = trace.rtt_ms_received();
  // Two emulated traversals: >= 60 ms, plus scheduling slack above.
  EXPECT_GE(analysis::summarize(rtts).min, 59.0);
  EXPECT_LT(analysis::median(rtts), 120.0);
}

TEST(PathEmulatorTest, RandomLossNearConfiguredRate) {
  SystemClock clock;
  EchoServer echo(0, clock);
  const std::jthread echoing = echo_loop(echo);

  PathEmulatorConfig config;
  config.target = make_endpoint("127.0.0.1", echo.port());
  config.one_way_delay = Duration::millis(1);
  config.rate = Bandwidth::bps(0.0);
  config.loss_probability =
      Probability::checked(0.25);  // per traversal: ~44% round trip
  config.seed = 9;
  PathEmulator wan(0, config);
  wan.start();

  ProberConfig probe_config;
  probe_config.delta = Duration::millis(4);
  probe_config.probe_count = 400;
  probe_config.drain = Duration::millis(200);
  Prober prober(clock, probe_config);
  const auto trace = prober.run(make_endpoint("127.0.0.1", wan.port()));

  const double loss = analysis::loss_stats(trace).ulp;
  EXPECT_NEAR(loss, 1.0 - 0.75 * 0.75, 0.08);
}

TEST(PathEmulatorTest, RateLimitSerializesBackToBackProbes) {
  SystemClock clock;
  EchoServer echo(0, clock);
  const std::jthread echoing = echo_loop(echo);

  PathEmulatorConfig config;
  config.target = make_endpoint("127.0.0.1", echo.port());
  config.one_way_delay = Duration::millis(2);
  config.rate = Bandwidth::bps(128e3);  // 32 B datagram -> 2 ms per traversal
  config.buffer_packets = 50;
  PathEmulator wan(0, config);
  wan.start();

  // Probes sent faster than the emulated line rate queue up: rtts grow.
  ProberConfig probe_config;
  probe_config.delta = Duration::millis(1);
  probe_config.probe_count = 60;
  probe_config.drain = Duration::millis(800);
  Prober prober(clock, probe_config);
  const auto trace = prober.run(make_endpoint("127.0.0.1", wan.port()));

  ASSERT_GT(trace.received_count(), 30u);
  const auto rtts = trace.rtt_ms_received();
  // Later probes wait behind earlier ones: spread well beyond the fixed
  // component.
  EXPECT_GT(analysis::summarize(rtts).max,
            analysis::summarize(rtts).min + 20.0);
}

TEST(PathEmulatorTest, OverflowDropsWhenBufferTiny) {
  SystemClock clock;
  EchoServer echo(0, clock);
  const std::jthread echoing = echo_loop(echo);

  PathEmulatorConfig config;
  config.target = make_endpoint("127.0.0.1", echo.port());
  config.one_way_delay = Duration::millis(1);
  config.rate = Bandwidth::bps(64e3);
  config.buffer_packets = 2;
  PathEmulator wan(0, config);
  wan.start();

  ProberConfig probe_config;
  probe_config.delta = Duration::millis(1);
  probe_config.probe_count = 100;
  probe_config.drain = Duration::millis(500);
  Prober prober(clock, probe_config);
  const auto trace = prober.run(make_endpoint("127.0.0.1", wan.port()));

  EXPECT_GT(trace.lost_count(), 10u);
  EXPECT_GT(wan.stats().overflow_drops, 10u);
}

TEST(PathEmulatorTest, BufferCountsThePacketInService) {
  // 800 b/s: each 100-byte datagram takes 1 s of service, so a burst
  // arrives well inside the first one's service.  K = 2 holds the packet
  // in service and one waiting; the other three of five overflow.
  const UdpSocket sink;
  PathEmulatorConfig config;
  config.target = make_endpoint("127.0.0.1", sink.local_port());
  config.rate = Bandwidth::bps(800);
  config.buffer_packets = 2;
  PathEmulator wan(0, config);
  wan.start();

  UdpSocket client;
  const std::vector<std::byte> datagram(100);
  const Endpoint emulator = make_endpoint("127.0.0.1", wan.port());
  for (int i = 0; i < 5; ++i) client.send_to(datagram, emulator);
  // Wait until the three drops are counted, or long enough for the burst
  // to have been read whatever the count.
  for (int poll = 0; poll < 50 && wan.stats().overflow_drops < 3; ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(wan.stats().overflow_drops, 3u);
}

TEST(PathEmulatorTest, ConfigValidation) {
  PathEmulatorConfig config;
  config.loss_probability = Probability::one();
  EXPECT_THROW(PathEmulator(0, config), std::invalid_argument);
  config = PathEmulatorConfig{};
  config.rate = Bandwidth::bps(-1.0);
  EXPECT_THROW(PathEmulator(0, config), std::invalid_argument);
  config = PathEmulatorConfig{};
  config.rate = Bandwidth::bps(128e3);
  config.buffer_packets = 0;
  EXPECT_THROW(PathEmulator(0, config), std::invalid_argument);
  // A negative delay is rejected before either socket binds: the port is
  // taken, so a bind first would throw std::system_error instead.
  const UdpSocket taken(0);
  config = PathEmulatorConfig{};
  config.one_way_delay = Duration::millis(-5);
  EXPECT_THROW(PathEmulator(taken.local_port(), config),
               std::invalid_argument);
}

TEST(PathEmulatorTest, StartStopIdempotent) {
  PathEmulatorConfig config;
  config.target = make_endpoint("127.0.0.1", 9);  // never used
  PathEmulator wan(0, config);
  wan.start();
  wan.start();
  wan.stop();
  wan.stop();
}

}  // namespace
}  // namespace bolot::netdyn

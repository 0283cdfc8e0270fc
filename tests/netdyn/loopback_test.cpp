// Integration test: the real-socket NetDyn prober against the real-socket
// echo server, over loopback.  This is the paper's experiment end to end
// — source host == destination host, echo host in the middle — with the
// kernel's loopback device standing in for the Internet.
#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/loss.h"
#include "analysis/stats.h"
#include "netdyn/echo_server.h"
#include "netdyn/prober.h"
#include "nettime/clock.h"
#include "tests/netdyn/echo_loop.h"

namespace bolot::netdyn {
namespace {

/// Floors a base clock's readings to `tick`, as a coarse host clock does.
class CoarseClock final : public Clock {
 public:
  CoarseClock(const Clock& base, Duration tick) : base_(base), tick_(tick) {}
  Duration now() const override { return quantize(base_.now(), tick_); }

 private:
  const Clock& base_;
  Duration tick_;
};

TEST(LoopbackIntegrationTest, AllProbesEchoWithPlausibleRtts) {
  SystemClock clock;
  EchoServer server(0, clock);
  const std::jthread echoing = echo_loop(server);

  ProberConfig config;
  config.delta = Duration::millis(2);
  config.probe_count = 100;
  config.drain = Duration::millis(300);
  Prober prober(clock, config);
  const auto trace = prober.run(make_endpoint("127.0.0.1", server.port()));

  ASSERT_EQ(trace.size(), 100u);
  // Loopback does not drop; allow a little slack for scheduler hiccups.
  EXPECT_GE(trace.received_count(), 98u);
  EXPECT_EQ(server.echoed_count(), trace.received_count());

  for (const auto& record : trace.records) {
    if (!record.received) continue;
    EXPECT_GT(record.rtt, Duration::zero());
    EXPECT_LT(record.rtt, Duration::millis(200)) << record.seq;
    // The echo timestamp is on the same (monotonic) clock here, so it
    // must fall inside the send/receive window.
    EXPECT_GE(record.echo_time, record.send_time);
    EXPECT_LE(record.echo_time, record.send_time + record.rtt);
  }
}

TEST(LoopbackIntegrationTest, SendTimesRespectDelta) {
  SystemClock clock;
  EchoServer server(0, clock);
  const std::jthread echoing = echo_loop(server);

  ProberConfig config;
  config.delta = Duration::millis(5);
  config.probe_count = 40;
  config.drain = Duration::millis(100);
  Prober prober(clock, config);
  const auto trace = prober.run(make_endpoint("127.0.0.1", server.port()));

  ASSERT_EQ(trace.size(), 40u);
  // Send spacing: nominal 5 ms; the scheduler can only stretch it.
  std::vector<double> gaps;
  for (std::size_t i = 1; i < trace.records.size(); ++i) {
    gaps.push_back(
        (trace.records[i].send_time - trace.records[i - 1].send_time)
            .millis());
  }
  const analysis::Summary s = analysis::summarize(gaps);
  // Sends follow an *absolute* schedule (start + seq * delta): a send
  // delayed by the OS is followed by a shorter catch-up gap, so only the
  // mean and median are schedule-bound.  Bounds are loose so a loaded CI
  // box does not flake the test.
  EXPECT_GE(s.mean, 4.0);
  EXPECT_LT(s.mean, 20.0);
  EXPECT_GE(analysis::median(gaps), 3.0);
}

TEST(LoopbackIntegrationTest, ProbesToNowhereAreAllLost) {
  SystemClock clock;
  ProberConfig config;
  config.delta = Duration::millis(1);
  config.probe_count = 20;
  config.drain = Duration::millis(50);
  Prober prober(clock, config);
  // An ephemeral port nobody listens on: everything times out.
  UdpSocket placeholder(0);  // reserve a port, never read from it
  const auto trace =
      prober.run(make_endpoint("127.0.0.1", placeholder.local_port()));
  EXPECT_EQ(trace.received_count(), 0u);
  EXPECT_EQ(analysis::loss_stats(trace).ulp, 1.0);
}

TEST(LoopbackIntegrationTest, ProberRunsOnce) {
  SystemClock clock;
  EchoServer server(0, clock);
  const std::jthread echoing = echo_loop(server);
  ProberConfig config;
  config.probe_count = 1;
  config.drain = Duration::millis(50);
  Prober prober(clock, config);
  prober.run(make_endpoint("127.0.0.1", server.port()));
  EXPECT_THROW(prober.run(make_endpoint("127.0.0.1", server.port())),
               std::logic_error);
}

TEST(ProberTest, RejectsProbeCountBeyondWireSequenceSpace) {
  SystemClock clock;
  ProberConfig config;
  config.probe_count = (std::uint64_t{1} << 32) + 1;
  EXPECT_THROW((Prober{clock, config}), std::invalid_argument);
  config.probe_count = std::uint64_t{1} << 32;  // seqs 0 .. 2^32 - 1 fit
  EXPECT_NO_THROW((Prober{clock, config}));
}

TEST(LoopbackIntegrationTest, QuantizedClockProducesCoarseRtts) {
  // Run the real experiment through a DECstation-style coarse clock: all
  // rtts must be multiples of the tick, reproducing the banding the
  // paper attributes to its source host.
  SystemClock base;
  CoarseClock clock(base, Duration::millis(2));
  EchoServer server(0, base);
  const std::jthread echoing = echo_loop(server);
  ProberConfig config;
  config.delta = Duration::millis(3);
  config.probe_count = 30;
  config.drain = Duration::millis(200);
  Prober prober(clock, config);
  const auto trace = prober.run(make_endpoint("127.0.0.1", server.port()));
  for (const auto& record : trace.records) {
    if (!record.received) continue;
    EXPECT_EQ(record.rtt.count_nanos() % Duration::millis(2).count_nanos(), 0)
        << record.rtt.to_string();
  }
}

TEST(EchoServerTest, PollOnceReturnsFalseOnTimeout) {
  SystemClock clock;
  EchoServer server(0, clock);
  EXPECT_FALSE(server.poll_once(Duration::millis(5)));
}

TEST(EchoServerTest, IgnoresNonProbeDatagrams) {
  SystemClock clock;
  EchoServer server(0, clock);
  UdpSocket sender(0);
  const char junk[] = "this is not a probe";
  sender.send_to(std::as_bytes(std::span(junk, sizeof junk)),
                 make_endpoint("127.0.0.1", server.port()));
  EXPECT_FALSE(server.poll_once(Duration::millis(200)));
  EXPECT_EQ(server.echoed_count(), 0u);
}

}  // namespace
}  // namespace bolot::netdyn

#include "sim/udp_echo.h"

#include <gtest/gtest.h>

#include <string>

#include "nettime/clock.h"
#include "sim/traffic.h"
#include "tests/sim/sim_fixtures.h"

namespace bolot::sim {
namespace {

struct EchoFixture : public ::testing::Test {
  EchoFixture() : net(simulator) {
    source_node = net.add_node("source");
    middle = net.add_node("middle");
    echo_node = net.add_node("echo");
    LinkConfig config;
    config.rate = Bandwidth::bps(128e3);
    config.propagation = Duration::millis(10);
    config.buffer_packets = 64;
    net.add_duplex_link(source_node, middle, config);
    net.add_duplex_link(middle, echo_node, config);
  }

  Simulator simulator;
  Network net;
  NodeId source_node = 0, middle = 0, echo_node = 0;
};

TEST_F(EchoFixture, RoundTripOnIdlePathIsFixedDelay) {
  EchoHost echo(simulator, net, echo_node);
  ProbeSourceConfig config;
  config.delta = Duration::millis(100);
  config.probe_count = 20;
  config.probe_wire = ByteSize::bytes(72);
  UdpEchoSource source(simulator, net, source_node, echo_node, config);
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(10));

  const auto trace = source.trace();
  ASSERT_EQ(trace.size(), 20u);
  EXPECT_EQ(trace.received_count(), 20u);
  EXPECT_EQ(echo.echoed_count(), 20u);
  // Idle path: rtt = 2 hops * (4.5 ms service + 10 ms prop) each way.
  const Duration expected = Duration::millis(4 * (4.5 + 10.0));
  for (const auto& record : trace.records) {
    EXPECT_EQ(record.rtt, expected) << record.seq;
  }
}

TEST_F(EchoFixture, TakeTraceMovesTheTraceOut) {
  EchoHost echo(simulator, net, echo_node);
  ProbeSourceConfig config;
  config.delta = Duration::millis(50);
  config.probe_count = 8;
  UdpEchoSource source(simulator, net, source_node, echo_node, config);
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(5));

  const auto copy = source.trace();
  const auto taken = source.take_trace();
  EXPECT_EQ(taken.delta, copy.delta);
  ASSERT_EQ(taken.size(), copy.size());
  for (std::size_t i = 0; i < taken.size(); ++i) {
    EXPECT_EQ(taken.records[i].seq, copy.records[i].seq);
    EXPECT_EQ(taken.records[i].rtt, copy.records[i].rtt);
    EXPECT_EQ(taken.records[i].received, copy.records[i].received);
  }
  EXPECT_EQ(source.trace().size(), 0u);
}

TEST_F(EchoFixture, EchoTimestampIsBetweenSendAndReceive) {
  EchoHost echo(simulator, net, echo_node);
  ProbeSourceConfig config;
  config.delta = Duration::millis(50);
  config.probe_count = 5;
  UdpEchoSource source(simulator, net, source_node, echo_node, config);
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(5));
  for (const auto& record : source.trace().records) {
    ASSERT_TRUE(record.received);
    EXPECT_GT(record.echo_time, record.send_time);
    EXPECT_LT(record.echo_time, record.send_time + record.rtt);
  }
}

TEST_F(EchoFixture, QuantizedClockFloorsTimestamps) {
  EchoHost echo(simulator, net, echo_node);
  ProbeSourceConfig config;
  config.delta = Duration::millis(50);
  config.probe_count = 10;
  config.clock_tick = kDecstationTick;
  UdpEchoSource source(simulator, net, source_node, echo_node, config);
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(5));
  const auto trace = source.trace();
  EXPECT_EQ(trace.clock_tick, kDecstationTick);
  for (const auto& record : trace.records) {
    ASSERT_TRUE(record.received);
    EXPECT_EQ(record.rtt.count_nanos() % kDecstationTick.count_nanos(), 0)
        << record.rtt.to_string();
  }
}

TEST_F(EchoFixture, RejectsNonPositiveClockTick) {
  // A zero tick would divide by zero at the first stamp, and a negative
  // one is no clock resolution at all; both are rejected up front.
  ProbeSourceConfig config;
  config.probe_count = 3;
  for (const Duration tick : {Duration::zero(), Duration::millis(-4)}) {
    config.clock_tick = tick;
    try {
      UdpEchoSource source(simulator, net, source_node, echo_node, config);
      ADD_FAILURE() << "clock_tick " << tick.to_string() << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("clock_tick"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(EchoFixture, ProbeStillInFlightCountsAsLost) {
  EchoHost echo(simulator, net, echo_node);
  ProbeSourceConfig config;
  config.delta = Duration::millis(10);
  config.probe_count = 3;
  UdpEchoSource source(simulator, net, source_node, echo_node, config);
  source.start(Duration::zero());
  // Stop the world before any echo returns (rtt is 58 ms).
  simulator.run_until(Duration::millis(25));
  const auto trace = source.trace();
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.received_count(), 0u);
  EXPECT_EQ(trace.lost_count(), 3u);
}

TEST_F(EchoFixture, CrossTrafficAtEchoNodeIsNotEchoed) {
  EchoHost echo(simulator, net, echo_node);
  ProbeSourceConfig config;
  config.probe_count = 1;
  UdpEchoSource source(simulator, net, source_node, echo_node, config);
  source.start(Duration::zero());
  // Bulk traffic addressed to the echo host itself.
  CbrSource cross(simulator, net, source_node, echo_node, 2,
                  PacketKind::kBulk, Duration::millis(20),
                  ByteSize::bytes(512));
  cross.start(Duration::zero());
  simulator.run_until(Duration::seconds(2));
  EXPECT_EQ(echo.echoed_count(), 1u);  // only the probe came back
}

TEST_F(EchoFixture, ProbesDelayedByQueueingShowHigherRtt) {
  EchoHost echo(simulator, net, echo_node);
  ProbeSourceConfig config;
  config.delta = Duration::millis(50);
  config.probe_count = 40;
  UdpEchoSource source(simulator, net, source_node, echo_node, config);
  source.start(Duration::zero());
  // Saturating cross traffic over the first link, same direction.
  CbrSource cross(simulator, net, source_node, echo_node, 2,
                  PacketKind::kBulk, Duration::millis(30),
                  ByteSize::bytes(512));
  cross.start(Duration::zero());
  simulator.run_until(Duration::seconds(10));
  const auto trace = source.trace();
  const Duration idle_rtt = Duration::millis(4 * 14.5);
  bool any_delayed = false;
  for (const auto& record : trace.records) {
    if (record.received && record.rtt > idle_rtt + Duration::millis(5)) {
      any_delayed = true;
    }
  }
  EXPECT_TRUE(any_delayed);
}

TEST_F(EchoFixture, VariableIntervalsFollowSampler) {
  EchoHost echo(simulator, net, echo_node);
  ProbeSourceConfig config;
  config.delta = Duration::millis(50);  // nominal
  config.probe_count = 50;
  config.interval_sampler = [](Rng& rng) {
    return Duration::millis(rng.uniform(15.0, 120.0));
  };
  UdpEchoSource source(simulator, net, source_node, echo_node, config);
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(30));
  const auto trace = source.trace();
  ASSERT_EQ(trace.size(), 50u);
  bool any_not_nominal = false;
  for (std::size_t i = 1; i < trace.records.size(); ++i) {
    const double gap_ms =
        (trace.records[i].send_time - trace.records[i - 1].send_time)
            .millis();
    EXPECT_GE(gap_ms, 14.9);
    EXPECT_LE(gap_ms, 120.1);
    if (gap_ms < 49.0 || gap_ms > 51.0) any_not_nominal = true;
  }
  EXPECT_TRUE(any_not_nominal);
}

TEST_F(EchoFixture, RejectsBadConfig) {
  ProbeSourceConfig config;
  config.delta = Duration::zero();
  EXPECT_THROW(
      UdpEchoSource(simulator, net, source_node, echo_node, config),
      std::invalid_argument);
  config.delta = Duration::millis(10);
  config.probe_wire = ByteSize::bytes(0);
  EXPECT_THROW(
      UdpEchoSource(simulator, net, source_node, echo_node, config),
      std::invalid_argument);
}

}  // namespace
}  // namespace bolot::sim

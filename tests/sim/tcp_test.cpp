#include "sim/tcp.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/sim/sim_fixtures.h"

namespace bolot::sim {
namespace {

/// Source host -- bottleneck link -- sink host, with stats access to the
/// bottleneck.
struct TcpFixture : public ::testing::Test {
  TcpFixture() : net(simulator) {
    src = net.add_node("src");
    router = net.add_node("router");
    dst = net.add_node("dst");
    LinkConfig access;
    access.rate = Bandwidth::bps(10e6);
    access.propagation = Duration::millis(1);
    access.buffer_packets = 1000;
    net.add_duplex_link(src, router, access);
    LinkConfig bottleneck_config;
    bottleneck_config.rate = Bandwidth::bps(128e3);
    bottleneck_config.propagation = Duration::millis(20);
    bottleneck_config.buffer_packets = 16;
    bottleneck = &net.add_duplex_link(router, dst, bottleneck_config);
  }

  Simulator simulator;
  Network net;
  NodeId src = 0, router = 0, dst = 0;
  Link* bottleneck = nullptr;
};

TEST_F(TcpFixture, TransfersCompleteAndAllDataIsAcked) {
  TcpSink sink(simulator, net, dst);
  TcpConfig config;
  config.mean_file_packets = 20.0;
  config.mean_idle = Duration::seconds(1);
  TcpSource source(simulator, net, src, dst, 1, Rng(3), config);
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(120));

  EXPECT_GT(source.stats().transfers_completed, 5u);
  EXPECT_GT(source.stats().segments_acked, 100u);
  // Conservation: every unique segment acked was received at least once,
  // i.e. delivered by the data direction's last hop.
  const std::uint64_t received = bottleneck->stats().delivered;
  EXPECT_GT(received, 0u);
  EXPECT_LE(source.stats().segments_acked, received);
}

TEST(TcpSlowStartTest, WindowDoublesEachRttOnAFatPath) {
  // Slow-start doubling is only visible when the pipe holds many
  // segments; the fixture's 128 kb/s path saturates at ~2.4 packets, so
  // use a 10 Mb/s bottleneck (pipe ~ 100 segments at 42 ms rtt).
  Simulator simulator;
  Network net(simulator);
  const NodeId src = net.add_node("src");
  const NodeId dst = net.add_node("dst");
  LinkConfig link;
  link.rate = Bandwidth::bps(10e6);
  link.propagation = Duration::millis(21);
  link.buffer_packets = 1000;
  net.add_duplex_link(src, dst, link);

  TcpSink sink(simulator, net, dst);
  TcpConfig config;  // infinite transfer
  TcpSource source(simulator, net, src, dst, 1, Rng(3), config);
  source.start(Duration::zero());

  std::vector<double> cwnd_samples;
  for (int k = 1; k <= 4; ++k) {
    simulator.run_until(Duration::millis(45.0 * k));
    cwnd_samples.push_back(source.stats().last_cwnd_packets);
  }
  // Exponential growth: each rtt doubles the window, up to the 16-packet
  // initial ssthresh.
  EXPECT_EQ(cwnd_samples, (std::vector<double>{2.0, 4.0, 8.0, 16.0}));
}

TEST_F(TcpFixture, GreedyTransferSaturatesBottleneck) {
  TcpSink sink(simulator, net, dst);
  TcpSource source(simulator, net, src, dst, 1, Rng(3), TcpConfig{});
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(60));
  // Ack-clocked steady state: goodput near the 128 kb/s bottleneck.
  const double goodput_bps =
      static_cast<double>(source.stats().segments_acked) * 512 * 8 / 60.0;
  EXPECT_GT(goodput_bps, 0.8 * 128e3);
  EXPECT_LE(goodput_bps, 1.05 * 128e3);
  // The congestion window must have been cut at least once (finite buffer).
  EXPECT_GT(source.stats().retransmissions, 0u);
}

TEST_F(TcpFixture, LossTriggersRetransmissionAndRecovery) {
  TcpSink sink(simulator, net, dst);
  TcpConfig config;
  TcpSource source(simulator, net, src, dst, 1, Rng(5), config);
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(120));
  const TcpStats& stats = source.stats();
  EXPECT_GT(stats.retransmissions, 0u);
  EXPECT_GT(stats.fast_retransmits + stats.timeouts, 0u);
  // Despite losses, delivery keeps making progress.
  EXPECT_GT(stats.segments_acked, 1000u);
}

TEST_F(TcpFixture, RttEstimatorTracksPathRtt) {
  TcpSink sink(simulator, net, dst);
  TcpSource source(simulator, net, src, dst, 1, Rng(3), TcpConfig{});
  source.start(Duration::zero());
  simulator.run_until(Duration::seconds(30));
  // Fixed rtt: 2*(1 + 20) ms propagation + store-and-forward services
  // (~32 ms data at bottleneck + headers), about 77 ms; the 32-packet
  // window overfills the 16-packet bottleneck buffer, so srtt also holds
  // up to 15 x 32 ms of self-queueing (it reads 413 ms here).
  EXPECT_GT(source.stats().last_srtt_ms, 60.0);
  EXPECT_LT(source.stats().last_srtt_ms, 600.0);
}

TEST_F(TcpFixture, SinkReassemblesOutOfOrderArrivals) {
  TcpSink sink(simulator, net, dst);
  // Inject raw out-of-order segments: 0, 2, 1.
  const auto send_data = [&](std::uint64_t seq) {
    Packet p;
    p.kind = PacketKind::kBulk;
    p.flow = 9;
    p.size_bytes = 512;
    p.src = src;
    p.dst = dst;
    p.set_tcp({seq, false});
    net.send(std::move(p));
  };
  std::vector<std::uint64_t> acks;
  net.set_receiver(src, [&](Packet&& p) {
    if (p.has_tcp() && p.tcp().is_ack) acks.push_back(p.tcp().seq);
  });
  send_data(0);
  send_data(2);
  send_data(1);
  drain(simulator);
  // Cumulative acks: 1 (after seq 0), 1 (dup for gap), 3 (gap filled).
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[0], 1u);
  EXPECT_EQ(acks[1], 1u);
  EXPECT_EQ(acks[2], 3u);
}

TEST_F(TcpFixture, TwoFlowsShareTheBottleneck) {
  TcpSink sink(simulator, net, dst);
  TcpSource a(simulator, net, src, dst, 1, Rng(3), TcpConfig{});
  // Second source needs its own node: acks demultiplex by flow at a
  // shared node would collide on Network's single receiver slot.
  const NodeId src2 = net.add_node("src2");
  LinkConfig access;
  access.rate = Bandwidth::bps(10e6);
  access.propagation = Duration::millis(1);
  access.buffer_packets = 1000;
  net.add_duplex_link(src2, router, access);
  TcpSource b(simulator, net, src2, dst, 2, Rng(4), TcpConfig{});
  a.start(Duration::zero());
  b.start(Duration::zero());
  simulator.run_until(Duration::seconds(120));
  const double goodput_a =
      static_cast<double>(a.stats().segments_acked) * 512 * 8 / 120.0;
  const double goodput_b =
      static_cast<double>(b.stats().segments_acked) * 512 * 8 / 120.0;
  // Combined they fill the link; each gets a nontrivial share.
  EXPECT_GT(goodput_a + goodput_b, 0.8 * 128e3);
  EXPECT_GT(goodput_a, 0.1 * 128e3);
  EXPECT_GT(goodput_b, 0.1 * 128e3);
}

TEST_F(TcpFixture, Validation) {
  TcpConfig config;
  config.mean_file_packets = 0.2;
  EXPECT_THROW(TcpSource(simulator, net, src, dst, 1, Rng(1), config),
               std::invalid_argument);
}

}  // namespace
}  // namespace bolot::sim

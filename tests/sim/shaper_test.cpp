#include "sim/shaper.h"

#include <gtest/gtest.h>

#include "sim/network.h"
#include "tests/sim/sim_fixtures.h"

namespace bolot::sim {
namespace {

struct ShaperFixture : public ::testing::Test {
  ShaperFixture() : net(simulator) {
    src = net.add_node("src");
    dst = net.add_node("dst");
    LinkConfig config;
    config.rate = Bandwidth::bps(100e6);
    config.propagation = Duration::micros(1);
    config.buffer_packets = 100000;
    hop = &net.add_duplex_link(src, dst, config);
    net.set_receiver(dst, [this](Packet&& p) {
      arrivals.push_back(simulator.now());
      bytes += p.size_bytes;
    });
    net.compute_routes();
  }

  Packet make_packet(std::int64_t size = 512) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.size_bytes = size;
    return p;
  }

  Simulator simulator;
  Network net;
  NodeId src = 0, dst = 0;
  Link* hop = nullptr;  // src -> dst: offered counts what the shaper sends
  std::vector<Duration> arrivals;
  std::int64_t bytes = 0;
};

TEST_F(ShaperFixture, BurstWithinBucketPassesImmediately) {
  ShaperConfig config;
  config.rate = Bandwidth::bps(128e3);
  config.bucket = ByteSize::bytes(2048);  // 4 x 512 B
  TokenBucketShaper shaper(simulator, net, config);
  for (int i = 0; i < 4; ++i) shaper.offer(make_packet());
  EXPECT_EQ(hop->stats().offered, 4u);  // none queued
  drain(simulator);
  EXPECT_EQ(arrivals.size(), 4u);
}

TEST_F(ShaperFixture, ExcessIsPacedAtTokenRate) {
  ShaperConfig config;
  config.rate = Bandwidth::bps(128e3);  // 512 B every 32 ms
  config.bucket = ByteSize::bytes(512);
  TokenBucketShaper shaper(simulator, net, config);
  for (int i = 0; i < 4; ++i) shaper.offer(make_packet());
  EXPECT_EQ(hop->stats().offered, 1u);  // bucket covered one packet
  EXPECT_EQ(shaper.dropped(), 0u);    // the other three queue
  drain(simulator);
  ASSERT_EQ(arrivals.size(), 4u);
  // Releases at ~0, 32, 64, 96 ms.
  EXPECT_NEAR((arrivals[1] - arrivals[0]).millis(), 32.0, 0.1);
  EXPECT_NEAR((arrivals[2] - arrivals[1]).millis(), 32.0, 0.1);
  EXPECT_NEAR((arrivals[3] - arrivals[2]).millis(), 32.0, 0.1);
}

TEST_F(ShaperFixture, LongRunRateMatchesConfiguredRate) {
  ShaperConfig config;
  config.rate = Bandwidth::bps(256e3);
  config.bucket = ByteSize::bytes(1024);
  config.queue_packets = 100000;
  TokenBucketShaper shaper(simulator, net, config);
  // Offer 2x the shaped rate for 10 seconds.
  for (int i = 0; i < 1250; ++i) {
    simulator.schedule_in(Duration::millis(8.0 * i),
                          [&shaper, this] { shaper.offer(make_packet()); });
  }
  drain(simulator);
  // Delivered bytes / active time ~ 256 kb/s (the tail drains after the
  // offered load stops; measure over the actual delivery span).
  const double span_s =
      (arrivals.back() - arrivals.front()).seconds();
  const double rate_bps = static_cast<double>(bytes - 512) * 8.0 / span_s;
  EXPECT_NEAR(rate_bps, 256e3, 10e3);
}

TEST_F(ShaperFixture, TailDropWhenShaperQueueFull) {
  ShaperConfig config;
  config.rate = Bandwidth::bps(128e3);
  config.bucket = ByteSize::bytes(512);
  config.queue_packets = 2;
  TokenBucketShaper shaper(simulator, net, config);
  for (int i = 0; i < 6; ++i) shaper.offer(make_packet());
  EXPECT_EQ(hop->stats().offered, 1u);
  EXPECT_EQ(shaper.dropped(), 3u);  // two of the six queue
  drain(simulator);
}

TEST_F(ShaperFixture, TokensRefillDuringIdle) {
  ShaperConfig config;
  config.rate = Bandwidth::bps(128e3);
  config.bucket = ByteSize::bytes(1024);
  TokenBucketShaper shaper(simulator, net, config);
  shaper.offer(make_packet());
  shaper.offer(make_packet());  // drains the bucket
  // After 64 ms of idle the bucket holds 1024 bytes again.
  simulator.schedule_in(Duration::millis(64), [&shaper, this] {
    shaper.offer(make_packet());
    shaper.offer(make_packet());
    EXPECT_EQ(hop->stats().offered, 4u);  // both released at once
  });
  drain(simulator);
  EXPECT_EQ(hop->stats().offered, 4u);
}

TEST_F(ShaperFixture, OffersBehindAQueuedPacketDoNotDelayItsRelease) {
  // 1000 B at 1 Mb/s: the bucket refills one packet every 8 ms.  The first
  // packet spends the bucket, the second queues and is due at 8 ms.
  // Offers arriving every 0.9 us until 9.8 ms queue behind it and must
  // not move that release: with each recomputed wait floored at 1 us,
  // moving it on every offer would hold it back until the offers stop.
  ShaperConfig config;
  config.rate = Bandwidth::bps(1e6);
  config.bucket = ByteSize::bytes(1000);
  config.queue_packets = 20000;
  TokenBucketShaper shaper(simulator, net, config);
  shaper.offer(make_packet(1000));
  simulator.schedule_in(Duration::zero(), [&shaper, this] {
    shaper.offer(make_packet(1000));
    if (simulator.now() < Duration::millis(9.8)) {
      simulator.rearm_in(Duration::micros(0.9));
    }
  });
  simulator.run_until(Duration::millis(12));
  EXPECT_EQ(shaper.dropped(), 0u);
  EXPECT_EQ(hop->stats().offered, 2u);
  ASSERT_EQ(arrivals.size(), 2u);
  // Released at 8 ms, then 80 us on the wire and 1 us of propagation.
  EXPECT_NEAR(arrivals[1].millis(), 8.081, 0.002);
}

TEST_F(ShaperFixture, RejectsBadConfig) {
  ShaperConfig config;
  config.rate = Bandwidth::bps(0.0);
  EXPECT_THROW(TokenBucketShaper(simulator, net, config),
               std::invalid_argument);
  config = ShaperConfig{};
  config.bucket = ByteSize::bytes(0);
  EXPECT_THROW(TokenBucketShaper(simulator, net, config),
               std::invalid_argument);
  config = ShaperConfig{};
  config.queue_packets = 0;
  EXPECT_THROW(TokenBucketShaper(simulator, net, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace bolot::sim

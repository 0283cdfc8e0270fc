#include "sim/link.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

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
  config.rate = Bandwidth::bps(128e3);  // the paper's transatlantic link
  config.propagation = Duration::millis(10);
  config.buffer_packets = 4;
  return config;
}

TEST(LinkTest, DeliversAfterServicePlusPropagation) {
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  std::vector<Duration> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(simulator.now()); });

  link.enqueue(make_packet(72));  // service 4.5 ms at 128 kb/s
  simulator.run_to_completion();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], Duration::millis(14.5));
}

TEST(LinkTest, ServiceTimeMatchesPaperNumbers) {
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  EXPECT_DOUBLE_EQ(link.service_time(ByteSize::bytes(72)).millis(), 4.5);
  EXPECT_DOUBLE_EQ(link.service_time(ByteSize::bytes(512)).millis(), 32.0);
}

TEST(LinkTest, FifoOrderPreserved) {
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  std::vector<std::uint64_t> ids;
  link.set_sink([&](Packet&& p) { ids.push_back(p.id); });
  for (std::uint64_t i = 0; i < 4; ++i) link.enqueue(make_packet(100, i));
  simulator.run_to_completion();
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(LinkTest, BackToBackDeparturesSpacedByServiceTime) {
  // The mechanism behind probe compression (paper eq. 3): packets queued
  // together leave exactly P/mu apart.
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  std::vector<Duration> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(simulator.now()); });
  link.enqueue(make_packet(72));
  link.enqueue(make_packet(72));
  link.enqueue(make_packet(72));
  simulator.run_to_completion();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[1] - arrivals[0], Duration::millis(4.5));
  EXPECT_EQ(arrivals[2] - arrivals[1], Duration::millis(4.5));
}

TEST(LinkTest, DropTailWhenBufferFull) {
  Simulator simulator;
  LinkConfig config = basic_config();
  config.buffer_packets = 2;  // one in service + one waiting
  Link link(simulator, config, Rng(1));
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  std::vector<std::uint64_t> dropped;
  link.set_drop_hook([&](const Packet& p, DropCause cause) {
    EXPECT_EQ(cause, DropCause::kOverflow);
    dropped.push_back(p.id);
  });
  for (std::uint64_t i = 0; i < 5; ++i) link.enqueue(make_packet(100, i));
  simulator.run_to_completion();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(dropped, (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_EQ(link.stats().overflow_drops, 3u);
  EXPECT_EQ(link.stats().delivered, 2u);
  EXPECT_EQ(link.stats().offered, 5u);
}

TEST(LinkTest, BufferCountsPacketInService) {
  Simulator simulator;
  LinkConfig config = basic_config();
  config.buffer_packets = 1;
  Link link(simulator, config, Rng(1));
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  link.enqueue(make_packet(100));  // in service
  link.enqueue(make_packet(100));  // no room: dropped
  EXPECT_EQ(link.queue_length(), 1u);
  simulator.run_to_completion();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.stats().overflow_drops, 1u);
}

TEST(LinkTest, SpaceFreesAsPacketsDepart) {
  Simulator simulator;
  LinkConfig config = basic_config();
  config.buffer_packets = 1;
  Link link(simulator, config, Rng(1));
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  link.enqueue(make_packet(100));
  // Enqueue after the first finishes service (100 B = 6.25 ms).
  simulator.schedule_in(Duration::millis(7),
                        [&] { link.enqueue(make_packet(100)); });
  simulator.run_to_completion();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.stats().overflow_drops, 0u);
}

TEST(LinkTest, RandomDropStageLossRate) {
  Simulator simulator;
  LinkConfig config = basic_config();
  config.rate = Bandwidth::bps(100e6);  // fast, so the run completes quickly
  config.buffer_packets = 100000;
  config.random_drop_probability =
      Probability::checked(0.03);  // the faulty-interface rate
  Link link(simulator, config, Rng(99));
  std::uint64_t delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  const int n = 100000;
  for (int i = 0; i < n; ++i) link.enqueue(make_packet(72));
  simulator.run_to_completion();
  const double loss_rate =
      static_cast<double>(link.stats().random_drops) / n;
  EXPECT_NEAR(loss_rate, 0.03, 0.004);
  EXPECT_EQ(link.stats().random_drops + delivered, static_cast<std::uint64_t>(n));
  EXPECT_EQ(link.stats().overflow_drops, 0u);
}

TEST(LinkTest, UtilizationAndBytesAccounting) {
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  link.set_sink([](Packet&&) {});
  link.enqueue(make_packet(512));  // 32 ms of service
  simulator.run_to_completion();
  EXPECT_EQ(link.stats().bytes_delivered, 512);
  EXPECT_DOUBLE_EQ(link.stats().busy.millis(), 32.0);
  EXPECT_NEAR(link.stats().utilization(Duration::millis(64)), 0.5, 1e-9);
}

TEST(LinkTest, MaxQueueHighWaterMark) {
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  link.set_sink([](Packet&&) {});
  for (int i = 0; i < 3; ++i) link.enqueue(make_packet(100));
  EXPECT_EQ(link.stats().max_queue, 3u);
  simulator.run_to_completion();
  EXPECT_EQ(link.stats().max_queue, 3u);
}

TEST(LinkTest, PauseHoldsQueueUntilResume) {
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  std::vector<Duration> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(simulator.now()); });

  link.pause();
  link.enqueue(make_packet(72));
  link.enqueue(make_packet(72));
  simulator.run_until(Duration::millis(100));
  EXPECT_TRUE(arrivals.empty());
  EXPECT_EQ(link.queue_length(), 2u);

  simulator.schedule_in(Duration::zero(), [&link] { link.resume(); });
  simulator.run_to_completion();
  ASSERT_EQ(arrivals.size(), 2u);
  // Service starts at resume (t = 100): 4.5 + 10 prop, then +4.5.
  EXPECT_EQ(arrivals[0], Duration::millis(114.5));
  EXPECT_EQ(arrivals[1], Duration::millis(119.0));
}

TEST(LinkTest, PauseMidServiceLetsCurrentPacketFinish) {
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  std::vector<Duration> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(simulator.now()); });
  link.enqueue(make_packet(72));  // service ends at 4.5 ms
  link.enqueue(make_packet(72));
  simulator.schedule_in(Duration::millis(1), [&link] { link.pause(); });
  simulator.run_until(Duration::millis(50));
  // First delivered (was in service), second held.
  ASSERT_EQ(arrivals.size(), 1u);
  simulator.schedule_in(Duration::zero(), [&link] { link.resume(); });
  simulator.run_to_completion();
  EXPECT_EQ(arrivals.size(), 2u);
}

TEST(LinkTest, DeliveryHookFiresWithoutSink) {
  // An observer-only link (delivery hook, no sink) must still run the
  // propagation stage and report deliveries.
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  std::vector<Duration> deliveries;
  link.add_delivery_hook(
      [&deliveries](const Packet&, SimTime at) { deliveries.push_back(at); });

  link.enqueue(make_packet(72));  // service 4.5 ms + 10 ms propagation
  simulator.run_to_completion();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], Duration::millis(14.5));
  EXPECT_EQ(link.stats().delivered, 1u);
}

TEST(LinkTest, DeliveryAndDropHooksChainInAttachOrder) {
  Simulator simulator;
  LinkConfig config = basic_config();
  config.buffer_packets = 1;
  Link link(simulator, config, Rng(1));
  link.set_sink([](Packet&&) {});
  std::vector<int> fired;
  link.add_delivery_hook([&fired](const Packet&, SimTime) { fired.push_back(1); });
  link.add_delivery_hook([&fired](const Packet&, SimTime) { fired.push_back(2); });
  link.add_drop_hook([&fired](const Packet&, DropCause) { fired.push_back(3); });
  link.add_drop_hook([&fired](const Packet&, DropCause) { fired.push_back(4); });

  link.enqueue(make_packet(72));
  link.enqueue(make_packet(72));  // buffer holds 1: tail drop
  simulator.run_to_completion();
  EXPECT_EQ(fired, (std::vector<int>{3, 4, 1, 2}));

  // set_* replaces the whole chain.
  link.set_delivery_hook([&fired](const Packet&, SimTime) { fired.push_back(5); });
  fired.clear();
  link.enqueue(make_packet(72));
  simulator.run_to_completion();
  EXPECT_EQ(fired, (std::vector<int>{5}));
}

TEST(LinkTest, PausedLinkStillDeliversInFlightPackets) {
  // pause() freezes the transmitter, not the wire: a packet already past
  // the transmitter keeps propagating and arrives on time.
  Simulator simulator;
  LinkConfig config = basic_config();
  config.propagation = Duration::millis(100);
  Link link(simulator, config, Rng(1));
  std::vector<Duration> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(simulator.now()); });

  link.enqueue(make_packet(72));  // service ends 4.5 ms; arrives 104.5 ms
  simulator.schedule_in(Duration::millis(10), [&link] { link.pause(); });
  simulator.schedule_in(Duration::millis(20),
                        [&link] { link.enqueue(make_packet(72)); });
  simulator.run_until(Duration::millis(200));
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], Duration::millis(104.5));
  EXPECT_TRUE(link.paused());
  EXPECT_EQ(link.queue_length(), 1u);  // second packet held at the pause

  simulator.schedule_in(Duration::zero(), [&link] { link.resume(); });
  simulator.run_to_completion();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1], Duration::millis(304.5));  // 200 + 4.5 + 100
}

TEST(LinkTest, ResumeWithoutPauseIsNoOp) {
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  EXPECT_FALSE(link.paused());
  link.resume();
  EXPECT_FALSE(link.paused());
}

TEST(LinkTest, BacklogBytesTracksQueue) {
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  link.set_sink([](Packet&&) {});
  EXPECT_EQ(link.backlog_bytes(), 0);
  link.enqueue(make_packet(512));
  link.enqueue(make_packet(72));
  EXPECT_EQ(link.backlog_bytes(), 584);
  simulator.run_to_completion();
  EXPECT_EQ(link.backlog_bytes(), 0);
}

// Delay ground truth reads a packet's sojourn at a link as delivery time
// minus hop_start, so hop_start must be the link's own admission time and
// the Packet must not grow to carry it.
static_assert(sizeof(Packet) == 80, "Packet layout changed");

TEST(LinkTest, EnqueueStampsHopStart) {
  // Three links chained by their sinks, as a node forwards: in zero time.
  // A burst of three 72 B probes queues at the first link, passes the
  // faster second link unqueued and queues again at the slower third.
  Simulator simulator;
  const Bandwidth rates[] = {Bandwidth::bps(128e3), Bandwidth::bps(256e3),
                             Bandwidth::bps(64e3)};
  const Duration propagations[] = {Duration::millis(10), Duration::millis(5),
                                   Duration::millis(1)};
  std::vector<std::unique_ptr<Link>> links;
  for (int k = 0; k < 3; ++k) {
    LinkConfig config = basic_config();
    config.rate = rates[k];
    config.propagation = propagations[k];
    links.push_back(std::make_unique<Link>(simulator, config, Rng(1)));
  }
  links[0]->set_sink([&](Packet&& p) { links[1]->enqueue(std::move(p)); });
  links[1]->set_sink([&](Packet&& p) { links[2]->enqueue(std::move(p)); });

  // Expected sojourn per hop and packet, as {wait, service, propagation}
  // in ms: service is 4.5, 2.25 and 9 ms per probe.
  struct Sojourn {
    double wait, service, propagation;
  };
  const Sojourn expected[3][3] = {
      {{0, 4.5, 10}, {4.5, 4.5, 10}, {9, 4.5, 10}},      // arrive 0, 0, 0
      {{0, 2.25, 5}, {0, 2.25, 5}, {0, 2.25, 5}},        // 14.5, 19, 23.5
      {{0, 9, 1}, {4.5, 9, 1}, {9, 9, 1}},               // 21.75, 26.25, 30.75
  };
  int delivered[3] = {0, 0, 0};
  for (int k = 0; k < 3; ++k) {
    links[k]->add_delivery_hook([&, k](const Packet& p, SimTime at) {
      const Sojourn& e = expected[k][p.id];
      EXPECT_EQ(at - p.hop_start,
                Duration::millis(e.wait + e.service + e.propagation))
          << "hop " << k << ", packet " << p.id;
      ++delivered[k];
    });
  }

  for (std::uint64_t i = 0; i < 3; ++i) {
    Packet p = make_packet(72, i);
    p.hop_start = Duration::seconds(-7);  // stale: must be overwritten
    links[0]->enqueue(std::move(p));
  }
  simulator.run_to_completion();
  EXPECT_EQ(delivered[0], 3);
  EXPECT_EQ(delivered[1], 3);
  EXPECT_EQ(delivered[2], 3);
}

TEST(LinkTest, RejectsBadConfig) {
  Simulator simulator;
  LinkConfig config = basic_config();
  config.rate = Bandwidth::bps(0.0);
  EXPECT_THROW(Link(simulator, config, Rng(1)), std::invalid_argument);
  config = basic_config();
  config.buffer_packets = 0;
  EXPECT_THROW(Link(simulator, config, Rng(1)), std::invalid_argument);
  config = basic_config();
  config.random_drop_probability = Probability::one();
  EXPECT_THROW(Link(simulator, config, Rng(1)), std::invalid_argument);
  // Out-of-range values can no longer reach LinkConfig at all: the checked
  // Probability constructor rejects them at the source.
  EXPECT_THROW(Probability::checked(-0.1), std::invalid_argument);
}

TEST(LinkStatsTest, UtilizationGuardsZeroElapsedTime) {
  // Regression pin for the elapsed == 0 guard: busy / elapsed is 0 / 0
  // before any sim time passes, and the stats must report idle (0.0)
  // rather than NaN.
  LinkStats stats;
  EXPECT_EQ(stats.utilization(Duration::zero()), 0.0);
  // Once time elapses the ratio is live again.
  stats.busy = Duration::millis(250);
  EXPECT_DOUBLE_EQ(stats.utilization(Duration::seconds(1)), 0.25);
}

}  // namespace
}  // namespace bolot::sim

#include "sim/link.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

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
  drain(simulator);
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
  drain(simulator);
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
  drain(simulator);
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
  drain(simulator);
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
  drain(simulator);
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
  drain(simulator);
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
  drain(simulator);
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
  drain(simulator);
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
  drain(simulator);
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
  drain(simulator);
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
  drain(simulator);
  EXPECT_EQ(arrivals.size(), 2u);
}

TEST(LinkTest, DeliveryHookFiresWithoutSink) {
  // An observer-only link (delivery hook, no sink) must still run the
  // propagation stage and report deliveries.
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  std::vector<Duration> deliveries;
  link.set_delivery_hook(
      [&deliveries](const Packet&, SimTime at) { deliveries.push_back(at); });

  link.enqueue(make_packet(72));  // service 4.5 ms + 10 ms propagation
  drain(simulator);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], Duration::millis(14.5));
  EXPECT_EQ(link.stats().delivered, 1u);
}

/// A link holds one observer of each kind: a second set throws, naming
/// the link, and the first hook keeps firing.
void expect_second_set_throws(bool drop_hook) {
  Simulator simulator;
  LinkConfig config = basic_config();
  config.name = "hooked";
  config.buffer_packets = 1;
  Link link(simulator, config, Rng(1));
  std::vector<int> fired;
  const auto set_hook = [&](int tag) {
    if (drop_hook) {
      link.set_drop_hook(
          [&fired, tag](const Packet&, DropCause) { fired.push_back(tag); });
    } else {
      link.set_delivery_hook(
          [&fired, tag](const Packet&, SimTime) { fired.push_back(tag); });
    }
  };
  set_hook(1);
  try {
    set_hook(2);
    ADD_FAILURE() << "a second hook was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()),
              std::string("Link hooked: ") +
                  (drop_hook ? "drop" : "delivery") + " hook already set");
  }
  link.enqueue(make_packet(72));
  link.enqueue(make_packet(72));  // buffer holds 1: tail drop
  drain(simulator);
  EXPECT_EQ(fired, std::vector<int>{1});
}

TEST(LinkTest, SecondDropHookThrows) {
  expect_second_set_throws(/*drop_hook=*/true);
}

TEST(LinkTest, SecondDeliveryHookThrows) {
  expect_second_set_throws(/*drop_hook=*/false);
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
  EXPECT_EQ(link.queue_length(), 1u);  // second packet held at the pause

  simulator.schedule_in(Duration::zero(), [&link] { link.resume(); });
  drain(simulator);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1], Duration::millis(304.5));  // 200 + 4.5 + 100
}

TEST(LinkTest, ResumeWithoutPauseIsNoOp) {
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  std::vector<Duration> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(simulator.now()); });
  link.resume();
  link.enqueue(make_packet(72));  // served at once, not held
  drain(simulator);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], Duration::millis(4.5) + basic_config().propagation);
}

TEST(LinkTest, BacklogBytesTracksQueue) {
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  link.set_sink([](Packet&&) {});
  EXPECT_EQ(link.backlog_bytes(), 0);
  link.enqueue(make_packet(512));
  link.enqueue(make_packet(72));
  EXPECT_EQ(link.backlog_bytes(), 584);
  drain(simulator);
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
    links[k]->set_delivery_hook([&, k](const Packet& p, SimTime at) {
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
  drain(simulator);
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
  // The buffer is reserved up front, so an absurd K is rejected before it
  // can exhaust memory; the bound itself is accepted.
  config = basic_config();
  config.buffer_packets = kMaxBufferPackets + 1;
  EXPECT_THROW(Link(simulator, config, Rng(1)), std::invalid_argument);
  config.buffer_packets = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(Link(simulator, config, Rng(1)), std::invalid_argument);
  config.buffer_packets = kMaxBufferPackets;
  EXPECT_NO_THROW(Link(simulator, config, Rng(1)));
  // Out-of-range values can no longer reach LinkConfig at all: the checked
  // Probability constructor rejects them at the source.
  EXPECT_THROW(Probability::checked(-0.1), std::invalid_argument);
}

TEST(LinkTest, SetRandomDropProbabilityKeepsTheConstructorGuard) {
  // Reassigning the faulty-interface rate after construction (as a
  // tomography mesh does) still refuses a link that drops every packet,
  // and leaves the old rate in place.
  Simulator simulator;
  Link link(simulator, basic_config(), Rng(1));
  link.set_random_drop_probability(Probability::checked(0.5));
  EXPECT_EQ(link.config().random_drop_probability.value(), 0.5);
  try {
    link.set_random_drop_probability(Probability::one());
    ADD_FAILURE() << "a drop probability of 1 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "Link: drop probability outside [0, 1)");
  }
  EXPECT_EQ(link.config().random_drop_probability.value(), 0.5);
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

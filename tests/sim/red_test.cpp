#include <gtest/gtest.h>

#include <cmath>

#include "sim/link.h"
#include "tests/sim/sim_fixtures.h"

namespace bolot::sim {

/// Reads Link's RED average-queue estimate (0 when RED is off), which no
/// program reads.
class RedTestPeer {
 public:
  static double average_queue(const Link& link) { return link.red_avg_; }
};

namespace {

double red_average_queue(const Link& link) {
  return RedTestPeer::average_queue(link);
}

Packet make_packet(std::int64_t bytes = 512) {
  Packet p;
  p.size_bytes = bytes;
  return p;
}

LinkConfig red_config() {
  LinkConfig config;
  config.rate = Bandwidth::bps(128e3);
  config.propagation = Duration::millis(1);
  config.buffer_packets = 30;
  RedConfig red;
  red.min_threshold = 4.0;
  red.max_threshold = 12.0;
  red.max_probability = Probability::checked(0.2);
  red.weight = 0.2;  // fast EWMA so short tests reach steady state
  config.red = red;
  return config;
}

TEST(RedTest, NoDropsBelowMinThreshold) {
  Simulator simulator;
  Link link(simulator, red_config(), Rng(1));
  link.set_sink([](Packet&&) {});
  // Offer packets slower than the service rate: queue stays ~1.
  for (int i = 0; i < 50; ++i) {
    simulator.schedule_in(Duration::millis(40.0 * i),
                          [&] { link.enqueue(make_packet()); });
  }
  drain(simulator);
  EXPECT_EQ(link.stats().red_drops, 0u);
  EXPECT_EQ(link.stats().overflow_drops, 0u);
}

TEST(RedTest, EarlyDropsBeforeBufferFills) {
  Simulator simulator;
  Link link(simulator, red_config(), Rng(7));
  link.set_sink([](Packet&&) {});
  // Sustained 2x overload: the average crosses the thresholds long before
  // the 30-packet buffer is exhausted.
  for (int i = 0; i < 600; ++i) {
    simulator.schedule_in(Duration::millis(16.0 * i),
                          [&] { link.enqueue(make_packet()); });
  }
  drain(simulator);
  EXPECT_GT(link.stats().red_drops, 20u);
  // RED kept the instantaneous queue away from the hard limit.
  EXPECT_LT(link.stats().max_queue, 30u);
  EXPECT_EQ(link.stats().overflow_drops, 0u);
}

TEST(RedTest, ForcedDropAboveMaxThreshold) {
  Simulator simulator;
  LinkConfig config = red_config();
  config.red->weight = 1.0;  // average == instantaneous queue
  Link link(simulator, config, Rng(1));
  link.set_sink([](Packet&&) {});
  // Burst-fill: once queue >= max_threshold every arrival is dropped.
  for (int i = 0; i < 20; ++i) link.enqueue(make_packet());
  EXPECT_GE(link.stats().red_drops, 20u - 13u);
  EXPECT_LE(link.queue_length(), 13u);  // 12 admitted at <max_th, +1 slack
  drain(simulator);
}

TEST(RedTest, AverageTracksQueue) {
  Simulator simulator;
  LinkConfig config = red_config();
  config.red->weight = 0.5;
  Link link(simulator, config, Rng(1));
  link.set_sink([](Packet&&) {});
  EXPECT_EQ(red_average_queue(link), 0.0);
  link.enqueue(make_packet());
  link.enqueue(make_packet());
  // avg after two arrivals with w=0.5: 0*0.5+0.5*0=0, then 0.5*0+0.5*1=0.5.
  EXPECT_NEAR(red_average_queue(link), 0.5, 1e-12);
  drain(simulator);
}

TEST(RedTest, DropHookReportsRedCause) {
  Simulator simulator;
  LinkConfig config = red_config();
  config.red->weight = 1.0;
  config.red->max_threshold = 2.0;
  config.red->min_threshold = 0.5;
  Link link(simulator, config, Rng(1));
  link.set_sink([](Packet&&) {});
  int red_drops = 0;
  link.set_drop_hook([&](const Packet&, DropCause cause) {
    if (cause == DropCause::kRed) ++red_drops;
  });
  for (int i = 0; i < 10; ++i) link.enqueue(make_packet());
  EXPECT_GT(red_drops, 0);
  drain(simulator);
}

TEST(RedTest, IdleTimeDecaysAverage) {
  // Floyd & Jacobson idle-time correction: after the queue drains, the
  // average must decay by (1-w)^m over the m service slots the link sat
  // idle — without it, a lone packet arriving long after a burst sees the
  // stale burst-time average and can be RED-dropped on an empty queue.
  Simulator simulator;
  LinkConfig config = red_config();
  config.red->weight = 0.2;
  config.red->min_threshold = 2.0;
  config.red->max_threshold = 10.0;
  Link link(simulator, config, Rng(1));
  link.set_sink([](Packet&&) {});

  // Back-to-back burst drives the EWMA above max_threshold (every arrival
  // past that point is a deterministic forced drop).
  for (int i = 0; i < 40; ++i) link.enqueue(make_packet());
  ASSERT_GT(red_average_queue(link), config.red->max_threshold);
  ASSERT_GT(link.stats().red_drops, 0u);

  // Drain completely, then sit idle for 10 seconds (~312 service slots at
  // 32 ms per 512-byte packet): the decayed average must be ~0.
  drain(simulator);
  ASSERT_EQ(link.queue_length(), 0u);
  const std::uint64_t drops_before = link.stats().red_drops;
  simulator.schedule_in(Duration::seconds(10),
                        [&] { link.enqueue(make_packet()); });
  drain(simulator);

  // Pre-fix the average survives the idle period at ~0.8*avg (one EWMA
  // step), which is still above max_threshold, so the packet is force-
  // dropped on an *empty* queue; post-fix it is admitted.
  EXPECT_EQ(link.stats().red_drops, drops_before);
  EXPECT_EQ(link.stats().delivered, link.stats().offered -
                                        link.stats().total_drops());
  EXPECT_LT(red_average_queue(link), config.red->min_threshold);
}

TEST(RedTest, IdleDecayIsCumulativeAcrossProbes) {
  // Two arrivals separated by idle gaps must see the same total decay as
  // one arrival after the combined gap: the correction must not re-apply
  // the full idle span at each arrival.
  Simulator simulator;
  LinkConfig config = red_config();
  config.red->weight = 0.01;  // slow decay so intermediate values survive
  Link link(simulator, config, Rng(1));
  link.set_sink([](Packet&&) {});
  for (int i = 0; i < 12; ++i) link.enqueue(make_packet());
  drain(simulator);
  const double avg_after_burst = red_average_queue(link);
  ASSERT_GT(avg_after_burst, 0.0);

  simulator.schedule_in(Duration::seconds(2),
                        [&] { link.enqueue(make_packet()); });
  drain(simulator);
  const double avg_after_gap = red_average_queue(link);
  EXPECT_LT(avg_after_gap, avg_after_burst);
  EXPECT_GT(avg_after_gap, 0.0);

  // The second gap's decay applies on top of the first, not from the
  // original burst time: total decay over the two 2 s spans matches the
  // single-span decay (+1 packet-service slot between the probes).
  simulator.schedule_in(Duration::seconds(2),
                        [&] { link.enqueue(make_packet()); });
  drain(simulator);
  const Duration slot = link.service_time(kRedMeanPacket);
  const double slots_per_gap = Duration::seconds(2) / slot;
  const double per_gap_decay =
      std::pow(1.0 - config.red->weight, slots_per_gap);
  EXPECT_NEAR(red_average_queue(link),
              avg_after_gap * per_gap_decay, avg_after_gap * 0.05);
}

TEST(RedTest, PausedSpansDoNotCountAsIdleTime) {
  // The idle-time correction models what the transmitter *could have
  // drained*; a paused link could drain nothing, so a paused-but-empty
  // span must not decay the average.  Build an average, drain, then sit
  // idle with a pause in the middle: the decay exponent must cover
  // exactly the unpaused idle time, to the slot.
  Simulator simulator;
  LinkConfig config = red_config();
  config.red->weight = 0.1;
  Link link(simulator, config, Rng(1));
  link.set_sink([](Packet&&) {});

  for (int i = 0; i < 12; ++i) link.enqueue(make_packet());
  drain(simulator);  // drained at 12 * 32 ms = 384 ms
  ASSERT_EQ(link.queue_length(), 0u);
  const double avg_after_burst = red_average_queue(link);
  ASSERT_GT(avg_after_burst, 0.0);
  // The queue goes serviceable-idle when the last *service* completes
  // (12 x 32 ms); now() after the drain is one propagation later.
  const Duration drained_at = Duration::millis(12 * 32.0);

  simulator.schedule_at(Duration::seconds(1), [&link] { link.pause(); });
  simulator.schedule_at(Duration::seconds(2), [&link] { link.resume(); });
  simulator.schedule_at(Duration::seconds(3),
                        [&link] { link.enqueue(make_packet()); });
  drain(simulator);

  // Serviceable idle: [drain, pause) + [resume, probe) — the paused
  // second is excluded.
  const Duration idle =
      (Duration::seconds(1) - drained_at) + Duration::seconds(1);
  const double slots =
      idle / link.service_time(kRedMeanPacket);
  const double expected =
      avg_after_burst * std::pow(1.0 - config.red->weight, slots);
  EXPECT_NEAR(red_average_queue(link), expected, expected * 1e-9);
}

TEST(RedTest, RejectsMalformedConfig) {
  Simulator simulator;
  LinkConfig config = red_config();
  config.red->max_threshold = config.red->min_threshold;  // not >
  EXPECT_THROW(Link(simulator, config, Rng(1)), std::invalid_argument);
  config = red_config();
  config.red->max_probability = Probability::zero();
  EXPECT_THROW(Link(simulator, config, Rng(1)), std::invalid_argument);
  config = red_config();
  config.red->weight = 1.5;
  EXPECT_THROW(Link(simulator, config, Rng(1)), std::invalid_argument);
  // A NaN weight passes both halves of "w <= 0 || w > 1"; unchecked, it
  // makes the average NaN and RED drops nearly every packet.
  config = red_config();
  config.red->weight = std::nan("");
  EXPECT_THROW(Link(simulator, config, Rng(1)), std::invalid_argument);
}

}  // namespace
}  // namespace bolot::sim

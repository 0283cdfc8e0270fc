#include "tests/sim/packet_log.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/network.h"
#include "tests/sim/sim_fixtures.h"

namespace bolot::sim {
namespace {

struct LogFixture : public ::testing::Test {
  LogFixture() : net(simulator) {
    a = net.add_node("a");
    b = net.add_node("b");
    LinkConfig config;
    config.name = "a->b";
    config.rate = Bandwidth::bps(128e3);
    config.propagation = Duration::millis(5);
    config.buffer_packets = 2;
    ab = &net.add_duplex_link(a, b, config);
    ba = &net.link_at(1);
    net.compute_routes();
  }

  void send(std::uint32_t flow, std::uint64_t id, std::int64_t bytes = 512) {
    Packet p;
    p.id = id;
    p.flow = flow;
    p.kind = PacketKind::kBulk;
    p.size_bytes = bytes;
    p.src = a;
    p.dst = b;
    net.send(std::move(p));
  }

  Simulator simulator;
  Network net;
  NodeId a = 0, b = 0;
  Link* ab = nullptr;
  Link* ba = nullptr;
};

TEST_F(LogFixture, RecordsDeliveriesWithTimestamps) {
  PacketLog log;
  log.attach(simulator, *ab);
  send(1, 100);
  drain(simulator);
  const auto& events = log.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, PacketEventKind::kDelivered);
  EXPECT_EQ(events[0].packet_id, 100u);
  EXPECT_EQ(events[0].flow, 1u);
  EXPECT_EQ(events[0].link_id, 0u);  // "a->b", the first name attached
  // 512 B at 128 kb/s = 32 ms service + 5 ms propagation.
  EXPECT_EQ(events[0].at, Duration::millis(37));
}

TEST_F(LogFixture, RecordsDropsWithCauseAndTime) {
  PacketLog log;
  log.attach(simulator, *ab);
  for (std::uint64_t i = 0; i < 4; ++i) send(1, i);
  drain(simulator);
  const auto& events = log.events();
  // Buffer 2: two delivered, two dropped.
  std::size_t delivered = 0, dropped = 0;
  for (const auto& event : events) {
    if (event.kind == PacketEventKind::kDelivered) ++delivered;
    if (event.kind == PacketEventKind::kDropped) {
      ++dropped;
      EXPECT_EQ(event.cause, DropCause::kOverflow);
      EXPECT_EQ(event.at, Duration::zero());  // dropped at enqueue time
    }
  }
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(dropped, 2u);
}

TEST_F(LogFixture, RecordPastCapacityThrows) {
  PacketLog log(2);
  log.attach(simulator, *ab);
  // Space sends so nothing queues: the third delivery finds the log full.
  for (std::uint64_t i = 0; i < 3; ++i) {
    simulator.schedule_in(Duration::millis(100.0 * i),
                          [this, i] { send(1, i); });
  }
  EXPECT_THROW(drain(simulator), std::length_error);
  const auto& events = log.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].packet_id, 0u);
  EXPECT_EQ(events[1].packet_id, 1u);
}

TEST_F(LogFixture, RejectsZeroCapacity) {
  EXPECT_THROW(PacketLog(0), std::invalid_argument);
}

TEST_F(LogFixture, InternsLinkNamesOncePerName) {
  PacketLog log;
  // Both directions of the duplex link share the configured name, so the
  // side table holds a single entry and every event carries a 4-byte id.
  log.attach(simulator, *ab);
  log.attach(simulator, *ba);
  send(1, 5);
  Packet back;
  back.id = 6;
  back.flow = 2;
  back.kind = PacketKind::kBulk;
  back.size_bytes = 512;
  back.src = b;
  back.dst = a;
  net.send(std::move(back));
  drain(simulator);
  const auto& events = log.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].link_id, 0u);
  EXPECT_EQ(events[1].link_id, 0u);  // the reverse direction, same name
}

}  // namespace
}  // namespace bolot::sim

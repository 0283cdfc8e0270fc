#include "sim/packet_log.h"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/network.h"

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
    net.add_duplex_link(a, b, config);
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
};

TEST_F(LogFixture, RecordsDeliveriesWithTimestamps) {
  PacketLog log;
  log.attach(simulator, net.link(a, b));
  send(1, 100);
  simulator.run_to_completion();
  const auto& events = log.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, PacketEventKind::kDelivered);
  EXPECT_EQ(events[0].packet_id, 100u);
  EXPECT_EQ(events[0].flow, 1u);
  EXPECT_EQ(log.link_name(events[0].link_id), "a->b");
  // 512 B at 128 kb/s = 32 ms service + 5 ms propagation.
  EXPECT_EQ(events[0].at, Duration::millis(37));
}

TEST_F(LogFixture, RecordsDropsWithCauseAndTime) {
  PacketLog log;
  log.attach(simulator, net.link(a, b));
  for (std::uint64_t i = 0; i < 4; ++i) send(1, i);
  simulator.run_to_completion();
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

TEST_F(LogFixture, FlowFilterAndDropWindow) {
  PacketLog log;
  log.attach(simulator, net.link(a, b));
  send(1, 1);
  send(2, 2);
  send(2, 3);  // dropped (buffer 2)
  simulator.run_to_completion();
  EXPECT_EQ(log.for_flow(1).size(), 1u);
  EXPECT_EQ(log.for_flow(2).size(), 2u);
  const auto drops =
      log.drops_between(Duration::zero(), Duration::seconds(1));
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].packet_id, 3u);
}

TEST_F(LogFixture, RingEvictsOldest) {
  PacketLog log(2);
  log.attach(simulator, net.link(a, b));
  // Space sends so nothing queues: 3 deliveries through a 2-slot ring.
  for (std::uint64_t i = 0; i < 3; ++i) {
    simulator.schedule_in(Duration::millis(100.0 * i),
                          [this, i] { send(1, i); });
  }
  simulator.run_to_completion();
  const auto& events = log.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(log.evicted(), 1u);
  // Oldest (id 0) evicted; order preserved.
  EXPECT_EQ(events[0].packet_id, 1u);
  EXPECT_EQ(events[1].packet_id, 2u);
}

TEST_F(LogFixture, CsvDump) {
  PacketLog log;
  log.attach(simulator, net.link(a, b));
  send(7, 42);
  simulator.run_to_completion();
  std::ostringstream os;
  log.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("at_ns,event,cause,link,packet_id,flow,kind,bytes"),
            std::string::npos);
  EXPECT_NE(csv.find("delivered,-,a->b,42,7,bulk,512"), std::string::npos);
}

/// Hook chaining: the log and a counting drop hook on one link, attached
/// in either order, each see every drop.  Buffer 2, four sends at t = 0:
/// two overflow.
void expect_log_and_hook_see_both_drops(LogFixture& f, bool log_first) {
  PacketLog log;
  std::uint64_t overflow = 0;
  const auto count_overflow = [&overflow](const Packet&, DropCause cause) {
    if (cause == DropCause::kOverflow) ++overflow;
  };
  Link& link = f.net.link(f.a, f.b);
  if (log_first) log.attach(f.simulator, link);
  link.add_drop_hook(count_overflow);
  if (!log_first) log.attach(f.simulator, link);
  for (std::uint64_t i = 0; i < 4; ++i) f.send(1, i);
  f.simulator.run_to_completion();
  EXPECT_EQ(overflow, 2u);
  EXPECT_EQ(log.drops_between(Duration::zero(), Duration::seconds(1)).size(),
            2u);
}

TEST_F(LogFixture, ComposesWithDropHookFirst) {
  expect_log_and_hook_see_both_drops(*this, /*log_first=*/true);
}

TEST_F(LogFixture, ComposesWithDropHookSecond) {
  expect_log_and_hook_see_both_drops(*this, /*log_first=*/false);
}

TEST_F(LogFixture, RejectsZeroCapacity) {
  EXPECT_THROW(PacketLog(0), std::invalid_argument);
}

TEST_F(LogFixture, InternsLinkNamesOncePerName) {
  PacketLog log;
  // Both directions of the duplex link share the configured name, so the
  // side table holds a single entry and every event carries a 4-byte id.
  log.attach(simulator, net.link(a, b));
  log.attach(simulator, net.link(b, a));
  ASSERT_EQ(log.link_names().size(), 1u);
  EXPECT_EQ(log.link_names()[0], "a->b");
  send(1, 5);
  simulator.run_to_completion();
  const auto& events = log.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].link_id, 0u);
  EXPECT_EQ(log.link_name(0), "a->b");
  EXPECT_THROW(log.link_name(1), std::out_of_range);
}

}  // namespace
}  // namespace bolot::sim

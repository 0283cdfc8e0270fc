#include "sim/network.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "tests/sim/sim_fixtures.h"

namespace bolot::sim {
namespace {

LinkConfig fast_link(const char* name = "link") {
  LinkConfig config;
  config.name = name;
  config.rate = Bandwidth::bps(10e6);
  config.propagation = Duration::millis(1);
  config.buffer_packets = 64;
  return config;
}

Packet make_packet(NodeId src, NodeId dst, std::int64_t bytes = 100) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.size_bytes = bytes;
  return p;
}

TEST(NetworkTest, NodeNamesAndLookup) {
  Simulator simulator;
  Network net(simulator);
  const NodeId a = net.add_node("alpha");
  const NodeId b = net.add_node("beta");
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.node_name(a), "alpha");
  EXPECT_EQ(net.node_name(b), "beta");
  EXPECT_THROW(net.node_name(2), std::out_of_range);
}

TEST(NetworkTest, DeliversAlongChain) {
  Simulator simulator;
  Network net(simulator);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId c = net.add_node("c");
  net.add_duplex_link(a, b, fast_link());
  net.add_duplex_link(b, c, fast_link());

  int received = 0;
  net.set_receiver(c, [&](Packet&& p) {
    ++received;
    EXPECT_EQ(p.dst, c);
  });
  net.send(make_packet(a, c));
  drain(simulator);
  EXPECT_EQ(received, 1);
  // Two hops: 2 * (service 80 us + propagation 1 ms).
  EXPECT_EQ(simulator.now(), Duration::micros(2 * (80 + 1000)));
}

TEST(NetworkTest, RoutesPreferFewestHops) {
  Simulator simulator;
  Network net(simulator);
  // a - b - c and a direct a - c link.
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId c = net.add_node("c");
  net.add_duplex_link(a, b, fast_link());
  net.add_duplex_link(b, c, fast_link());
  net.add_duplex_link(a, c, fast_link("direct"));
  net.compute_routes();
  const auto hops = net.traceroute(a, c);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].name, "a");
  EXPECT_EQ(hops[1].name, "c");
}

TEST(NetworkTest, TracerouteReproducesChainOrder) {
  Simulator simulator;
  Network net(simulator);
  std::vector<NodeId> path;
  for (int i = 0; i < 5; ++i) path.push_back(net.add_node("n" + std::to_string(i)));
  for (int i = 0; i + 1 < 5; ++i) {
    net.add_duplex_link(path[static_cast<std::size_t>(i)],
                        path[static_cast<std::size_t>(i + 1)], fast_link());
  }
  net.compute_routes();
  const auto hops = net.traceroute(path.front(), path.back());
  ASSERT_EQ(hops.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(hops[static_cast<std::size_t>(i)].name, "n" + std::to_string(i));
  }
}

TEST(NetworkTest, RouteLinksNameTheLinksTracerouteCrosses) {
  Simulator simulator;
  Network net(simulator);
  // a - b - c plus a direct a - c link: the min-hop route takes the latter.
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId c = net.add_node("c");
  const NodeId d = net.add_node("d");
  net.add_duplex_link(a, b, fast_link());
  net.add_duplex_link(b, c, fast_link());
  net.add_duplex_link(a, c, fast_link("direct"));
  net.add_duplex_link(c, d, fast_link());
  EXPECT_THROW(net.route_links(a, d), std::logic_error);  // not yet routed
  net.compute_routes();
  for (const auto& [src, dst] : {std::pair{a, d}, std::pair{d, b},
                                 std::pair{b, a}}) {
    const auto hops = net.traceroute(src, dst);
    const std::vector<std::uint32_t> uids = net.route_links(src, dst);
    ASSERT_EQ(uids.size() + 1, hops.size());
    for (std::size_t i = 0; i < uids.size(); ++i) {
      EXPECT_EQ(net.link_source(uids[i]), hops[i].node);
      EXPECT_EQ(net.link_target(uids[i]), hops[i + 1].node);
    }
  }
  EXPECT_EQ(net.link_at(net.route_links(a, d).front()).config().name,
            "direct");
  EXPECT_TRUE(net.route_links(a, a).empty());
}

TEST(NetworkTest, SendToSelfDeliversLocally) {
  Simulator simulator;
  Network net(simulator);
  const NodeId a = net.add_node("a");
  int received = 0;
  net.set_receiver(a, [&](Packet&&) { ++received; });
  net.send(make_packet(a, a));
  EXPECT_EQ(received, 1);
}

TEST(NetworkTest, ThrowsWhenNoRouteExists) {
  Simulator simulator;
  Network net(simulator);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");  // disconnected
  net.compute_routes();
  EXPECT_THROW(net.send(make_packet(a, b)), std::runtime_error);
}

TEST(NetworkTest, PacketWithoutReceiverIsConsumedSilently) {
  Simulator simulator;
  Network net(simulator);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link());
  net.send(make_packet(a, b));
  EXPECT_NO_THROW(drain(simulator));
}

TEST(NetworkTest, LinkAccessorFindsDirectedLinks) {
  Simulator simulator;
  Network net(simulator);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  Link& forward = net.add_duplex_link(a, b, fast_link());
  ASSERT_EQ(net.link_count(), 2u);
  EXPECT_EQ(&net.link_at(0), &forward);
  EXPECT_EQ(net.link_source(0), a);
  EXPECT_EQ(net.link_target(0), b);
  EXPECT_EQ(net.link_source(1), b);
  EXPECT_EQ(net.link_target(1), a);
  EXPECT_THROW(net.link_at(2), std::out_of_range);
}

TEST(NetworkTest, RejectsBadLinkEndpoints) {
  Simulator simulator;
  Network net(simulator);
  const NodeId a = net.add_node("a");
  EXPECT_THROW(net.add_link(a, a, fast_link(), simulator),
               std::invalid_argument);
  EXPECT_THROW(net.add_link(a, 99, fast_link(), simulator),
               std::invalid_argument);
}

TEST(NetworkTest, DropAccountingAcrossLinks) {
  Simulator simulator;
  Network net(simulator);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig tiny = fast_link();
  tiny.rate = Bandwidth::bps(1000.0);  // slow: everything queues
  tiny.buffer_packets = 1;
  net.add_duplex_link(a, b, tiny);
  for (int i = 0; i < 5; ++i) net.send(make_packet(a, b));
  drain(simulator);
  EXPECT_EQ(net.total_overflow_drops(), 4u);
  EXPECT_EQ(net.total_random_drops(), 0u);
}

TEST(NetworkTest, LinkDownReroutesOverBackupPath) {
  Simulator simulator;
  Network net(simulator);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId c = net.add_node("c");
  net.add_duplex_link(a, c, fast_link("direct"));
  net.add_duplex_link(a, b, fast_link());
  net.add_duplex_link(b, c, fast_link());
  net.compute_routes();
  EXPECT_EQ(net.traceroute(a, c).size(), 2u);  // direct

  net.set_link_down(a, c);
  const auto rerouted = net.traceroute(a, c);
  ASSERT_EQ(rerouted.size(), 3u);
  EXPECT_EQ(rerouted[1].name, "b");
  EXPECT_EQ(net.traceroute(c, a).size(), 2u);  // c -> a is still up
}

TEST(NetworkTest, MidPathPacketsDroppedWhenRouteVanishes) {
  Simulator simulator;
  Network net(simulator);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId c = net.add_node("c");
  net.add_duplex_link(a, b, fast_link());
  net.add_duplex_link(b, c, fast_link());
  int received = 0;
  net.set_receiver(c, [&](Packet&&) { ++received; });
  net.send(make_packet(a, c));
  // The second hop goes down while the packet crosses the first.
  simulator.schedule_in(Duration::micros(500),
                        [&net, b, c] { net.set_link_down(b, c); });
  drain(simulator);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.unroutable_drops(), 1u);
}

TEST(NetworkTest, SendFromOriginWithNoRouteStillThrows) {
  Simulator simulator;
  Network net(simulator);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link());
  net.set_link_down(a, b);
  EXPECT_THROW(net.send(make_packet(a, b)), std::runtime_error);
}

TEST(NetworkTest, AsymmetricLinksRouteIndependently) {
  Simulator simulator;
  Network net(simulator);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, fast_link(), simulator);  // one-way only
  net.compute_routes();
  EXPECT_NO_THROW(net.traceroute(a, b));
  EXPECT_THROW(net.traceroute(b, a), std::runtime_error);
}

}  // namespace
}  // namespace bolot::sim

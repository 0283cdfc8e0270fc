#include "sim/monitor.h"

#include <gtest/gtest.h>

#include "sim/network.h"
#include "sim/traffic.h"

namespace bolot::sim {
namespace {

TEST(DropMonitorTest, CountsByFlowAndCause) {
  Simulator simulator;
  LinkConfig config;
  config.rate = Bandwidth::bps(1000.0);  // slow: easy to overflow
  config.buffer_packets = 1;
  Link link(simulator, config, Rng(1));
  link.set_sink([](Packet&&) {});

  DropMonitor monitor;
  monitor.attach(link);
  for (std::uint32_t flow = 1; flow <= 2; ++flow) {
    for (int i = 0; i < 3; ++i) {
      Packet p;
      p.flow = flow;
      p.size_bytes = 100;
      link.enqueue(std::move(p));
    }
  }
  simulator.run_to_completion();
  // First packet admitted, the remaining 5 dropped (flow 1 loses 2,
  // flow 2 loses 3).
  EXPECT_EQ(monitor.drops_for(1).overflow, 2u);
  EXPECT_EQ(monitor.drops_for(2).overflow, 3u);
  EXPECT_EQ(monitor.total_drops(), 5u);
  EXPECT_EQ(monitor.drops_for(99).total(), 0u);  // unseen flow
}

TEST(DropMonitorTest, AggregatesAcrossLinks) {
  Simulator simulator;
  LinkConfig config;
  config.rate = Bandwidth::bps(1000.0);
  config.buffer_packets = 1;
  Link a(simulator, config, Rng(1));
  Link b(simulator, config, Rng(2));
  a.set_sink([](Packet&&) {});
  b.set_sink([](Packet&&) {});
  DropMonitor monitor;
  monitor.attach(a);
  monitor.attach(b);
  for (int i = 0; i < 2; ++i) {
    Packet p;
    p.flow = 7;
    p.size_bytes = 100;
    a.enqueue(std::move(p));
  }
  for (int i = 0; i < 2; ++i) {
    Packet p;
    p.flow = 7;
    p.size_bytes = 100;
    b.enqueue(std::move(p));
  }
  simulator.run_to_completion();
  EXPECT_EQ(monitor.drops_for(7).overflow, 2u);  // one per link
}

}  // namespace
}  // namespace bolot::sim

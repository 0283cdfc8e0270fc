// Counting-allocator regression test for the packet datapath's
// allocation-free steady state.  Like event_alloc_test, this TU replaces
// the global operator new/delete, so it links into its own binary.
//
// The contract under test is the headline property of the coalesced
// datapath: once every per-link ring (queue and flight), the event slab,
// and the observers' buffers have reached their high-water marks, a
// packet traversing a multi-hop path costs ZERO heap allocations — not
// per packet, not per hop, not per event.  The scenario is deliberately
// hostile: a 3-hop chain driven at exactly line rate with a PacketLog and
// a counting drop hook attached to every link, i.e. the full hook chain
// runs for every delivery.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/network.h"
#include "sim/packet_log.h"
#include "sim/simulator.h"
#include "sim/traffic.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bolot::sim {
namespace {

TEST(DatapathAllocTest, ForwardedPacketsCostZeroAllocationsAtSteadyState) {
  Simulator simulator;
  Network net(simulator);
  const NodeId n0 = net.add_node("n0");
  const NodeId n1 = net.add_node("n1");
  const NodeId n2 = net.add_node("n2");
  const NodeId n3 = net.add_node("n3");
  LinkConfig config;
  config.rate = Bandwidth::bps(1.024e9);  // 512 B = 4 us service
  config.propagation = Duration::millis(1);
  config.buffer_packets = 64;
  net.add_link(n0, n1, config);
  net.add_link(n1, n2, config);
  net.add_link(n2, n3, config);
  net.compute_routes();

  // Full observer chain on every hop.
  PacketLog log(256);
  std::uint64_t drops = 0;
  for (Link* link :
       {&net.link(n0, n1), &net.link(n1, n2), &net.link(n2, n3)}) {
    log.attach(simulator, *link);
    link->add_drop_hook([&drops](const Packet&, DropCause) { ++drops; });
  }

  std::uint64_t received = 0;
  net.set_receiver(n3, [&received](Packet&&) { ++received; });

  // Exactly line rate: every link stays busy, nothing drops.
  CbrSource source(simulator, net, n0, n3, /*flow=*/1, PacketKind::kBulk,
                   Rng(7), Duration::micros(4), /*packet=*/ByteSize::bytes(512));
  source.start(Duration::zero());

  // Warm-up: rings, slab, and the log ring reach their high-water marks
  // (the flight rings alone grow to propagation/service = 250 slots).
  simulator.run_until(Duration::seconds(1));
  const std::uint64_t received_before = received;
  ASSERT_GT(received_before, 0u);

  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  simulator.run_until(Duration::seconds(3));
  const std::uint64_t allocs_after =
      g_allocations.load(std::memory_order_relaxed);

  const std::uint64_t forwarded = received - received_before;
  EXPECT_GT(forwarded, 400000u);  // ~250k packets/s over 2 s
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "datapath allocated " << (allocs_after - allocs_before)
      << " times over " << forwarded << " forwarded packets";
  EXPECT_EQ(drops, 0u);
}

}  // namespace
}  // namespace bolot::sim

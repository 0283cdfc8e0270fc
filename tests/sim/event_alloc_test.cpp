// Counting-allocator regression test for the event core's allocation-free
// steady state.  This TU replaces the global operator new/delete with
// counting versions, so it links into its own test binary (event_alloc_test)
// rather than the shared sim_test — the counters would otherwise tax every
// sim test, and nothing else may allocate between the measurement marks.
//
// The contract under test: once the slab, the heap vector, and any library
// internals have reached their high-water marks (warm-up), a
// schedule -> dispatch cycle and a schedule -> cancel cycle perform zero
// heap allocations.  This is what the InplaceFunction + slab design buys
// over the std::function/shared_ptr implementation, which allocated three
// times per dispatched event.  The frees are counted too: a simulator that
// dies hands back every block it allocated, slab chunks included.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/simulator.h"
#include "tests/sim/sim_fixtures.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_frees{0};

void counted_free(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
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

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace bolot::sim {
namespace {

TEST(EventAllocTest, ScheduleDispatchCycleIsAllocationFreeAfterWarmup) {
  Simulator simulator;
  std::uint64_t fired = 0;
  const auto wave = [&] {
    for (int i = 0; i < 1024; ++i) {
      simulator.schedule_in(Duration::micros(i % 97), [&fired] { ++fired; });
    }
    drain(simulator);
  };
  for (int round = 0; round < 3; ++round) wave();  // reach high-water marks

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) wave();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(fired, 13u * 1024u);
}

TEST(EventAllocTest, ScheduleCancelCycleIsAllocationFreeAfterWarmup) {
  // The TCP-RTO pattern: with eager cancellation the slot is recycled
  // immediately, so rearming a timer a million times costs zero
  // allocations once the first slot exists.
  Simulator simulator;
  EventHandle timer;
  int fired = 0;
  for (int i = 0; i < 64; ++i) {  // warm-up
    timer.cancel();
    timer = simulator.schedule_in(Duration::seconds(30), [&fired] { ++fired; });
  }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000000; ++i) {
    timer.cancel();
    timer = simulator.schedule_in(Duration::seconds(30), [&fired] { ++fired; });
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u);
  timer.cancel();
  drain(simulator);
  EXPECT_EQ(fired, 0);
}

TEST(EventAllocTest, LaneAndHeapChurnIsAllocationFreeAfterWarmup) {
  // 300 staggered 10 ms chains (the mesh's probe streams) re-arm into the
  // lane while one-shot waves and an RTO-style timer churn the heap; once
  // the lane ring, the heap and the slab have grown, nothing allocates.
  Simulator simulator;
  std::uint64_t ticks = 0;
  std::uint64_t fired = 0;
  for (int i = 0; i < 300; ++i) {
    simulator.schedule_in(Duration::micros(1.0 + 33.0 * i),
                          [&simulator, &ticks] {
                            ++ticks;
                            simulator.rearm_in(Duration::millis(10));
                          });
  }
  EventHandle timer;
  const auto cycle = [&] {
    for (int i = 0; i < 256; ++i) {
      simulator.schedule_in(Duration::micros(i % 97), [&fired] { ++fired; });
    }
    timer.cancel();
    timer = simulator.schedule_in(Duration::seconds(30), [&fired] { ++fired; });
    simulator.run_until(simulator.now() + Duration::millis(10));
  };
  for (int round = 0; round < 3; ++round) cycle();  // reach high-water marks

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) cycle();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(fired, 13u * 256u);
  EXPECT_EQ(ticks, 13u * 300u);
  EXPECT_EQ(simulator.pending_events(), 301u);
}

TEST(EventAllocTest, DestroyedQueueFreesItsSlab) {
  // 50,000 pending events, more than any case above, need 196 slab
  // chunks.  Everything the simulator allocated, chunks included, goes
  // back to the allocator when it dies.
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t frees_before = g_frees.load(std::memory_order_relaxed);
  {
    Simulator simulator;
    int fired = 0;
    for (int i = 0; i < 50000; ++i) {
      simulator.schedule_in(Duration::micros(i), [&fired] { ++fired; });
    }
    EXPECT_EQ(simulator.pending_events(), 50000u);
  }
  const std::uint64_t allocs = g_allocations.load(std::memory_order_relaxed) -
                               allocs_before;
  const std::uint64_t frees =
      g_frees.load(std::memory_order_relaxed) - frees_before;
  EXPECT_GE(allocs, 196u);
  EXPECT_EQ(frees, allocs);
}

}  // namespace
}  // namespace bolot::sim

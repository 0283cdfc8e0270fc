// Counting-allocator + overhead regression test for the observability
// layer.  Separate test binary (like event_alloc_test): this TU replaces
// the global operator new/delete, and nothing else may allocate between
// the measurement marks.
//
// Contracts under test:
//   * a Sampler's steady state — probe evaluation, series push, event
//     re-arm, and decimation — performs zero heap allocations;
//   * attaching the full metrics + sampler stack to a line-rate 3-hop
//     chain changes neither what the simulation computes (deliveries,
//     pinned exactly) nor its event count (pinned exactly) beyond exactly
//     one event per sample;
//   * (opt-in, BOLOT_PERF_ASSERT=1) the instrumented kernel's wall clock
//     stays within 3% of bare — advisory by default because shared CI
//     runners make wall-clock assertions flaky.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/traffic.h"
#include "tests/sim/sim_fixtures.h"

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

namespace bolot::obs {
namespace {

TEST(ObsOverheadTest, SamplerSteadyStateIsAllocationFree) {
  sim::Simulator simulator;
  // Small budget so the measured window crosses several decimations —
  // the in-place decimate must not allocate either.
  Sampler sampler(simulator, Duration::micros(100), 256);
  double level = 0.0;
  sampler.add_series("a", [&level] { return level; });
  sampler.add_series("b", [&level] { return level * 2.0; });
  sampler.start(SimTime());

  // Warm-up: reach the event core's high-water marks.
  simulator.run_until(Duration::millis(100));

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  simulator.run_until(Duration::seconds(2));  // ~19k ticks, ~6 decimations
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  sampler.stop();
  sim::drain(simulator);
  EXPECT_EQ(after - before, 0u);
  // Decimated at least once.
  EXPECT_GT(sampler.series(0).stride(), Duration::micros(100));
  EXPECT_EQ(sampler.series(0).size(), sampler.series(1).size());
}

struct ChainRun {
  std::uint64_t delivered = 0;  // end to end
  std::uint64_t hop_deliveries = 0;
  std::uint64_t events = 0;
  std::uint64_t samples = 0;
  double wall_seconds = 0.0;
};

/// A 3-hop chain at 1.024e9 b/s (512 B in exactly 4 us) driven by CBR at
/// line rate for 1 sim-second: every transmitter busy, nothing drops.
ChainRun run_chain3(bool with_obs) {
  sim::Simulator simulator;
  sim::Network net(simulator, 7);
  const sim::NodeId n0 = net.add_node("n0");
  const sim::NodeId n1 = net.add_node("n1");
  const sim::NodeId n2 = net.add_node("n2");
  const sim::NodeId n3 = net.add_node("n3");
  sim::LinkConfig config;
  config.rate = Bandwidth::bps(1.024e9);
  config.propagation = Duration::micros(10);
  config.buffer_packets = 64;
  config.name = "hop0";
  sim::Link& hop0 = net.add_link(n0, n1, config, simulator);
  config.name = "hop1";
  sim::Link& hop1 = net.add_link(n1, n2, config, simulator);
  config.name = "hop2";
  sim::Link& hop2 = net.add_link(n2, n3, config, simulator);

  MetricsRegistry registry;
  Sampler sampler(simulator, Duration::millis(1), 2048);
  if (with_obs) {
    hop0.publish_metrics(registry);
    hop1.publish_metrics(registry);
    hop2.publish_metrics(registry);
    watch_queue_packets(sampler, hop0);
    watch_utilization(sampler, hop0);
  }

  std::uint64_t received = 0;
  net.set_receiver(n3, [&received](sim::Packet&&) { ++received; });
  sim::CbrSource source(simulator, net, n0, n3, 1, sim::PacketKind::kBulk,
                        Duration::micros(4), ByteSize::bytes(512),
                        /*last=*/Duration::seconds(1));
  net.compute_routes();
  source.start(SimTime());
  if (with_obs) sampler.start(SimTime());

  const auto start = std::chrono::steady_clock::now();
  simulator.run_until(Duration::seconds(1));
  sampler.stop();
  sim::drain(simulator);
  ChainRun run;
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.delivered = received;
  run.hop_deliveries = net.total_delivered();
  run.events = simulator.events_dispatched();
  // One event dispatch per sample (no decimation).
  run.samples = with_obs ? sampler.series(0).size() : 0;
  return run;
}

TEST(ObsOverheadTest, SamplingChangesNothingButTheSampleEvents) {
  const ChainRun bare = run_chain3(/*with_obs=*/false);
  const ChainRun obs = run_chain3(/*with_obs=*/true);

  // The simulation's outputs are identical: probes only read state.
  EXPECT_EQ(bare.delivered, 250'001u);
  EXPECT_EQ(bare.hop_deliveries, 750'003u);
  EXPECT_EQ(bare.events, 1'750'007u);
  EXPECT_EQ(obs.delivered, bare.delivered);
  EXPECT_EQ(obs.hop_deliveries, bare.hop_deliveries);
  // And the schedule differs by exactly the sampler's own events (the
  // 1 ms grid over 1 s stays under budget, so dispatches == samples).
  EXPECT_EQ(obs.events, bare.events + obs.samples);
  EXPECT_EQ(obs.samples, 1001u);
}

TEST(ObsOverheadTest, InstrumentedThroughputWithinThreePercent) {
  if (std::getenv("BOLOT_PERF_ASSERT") == nullptr) {
    GTEST_SKIP() << "wall-clock assertion disabled (set BOLOT_PERF_ASSERT=1); "
                    "shared runners make timing ratios flaky";
  }
  // Median of 3 interleaved runs each, to damp scheduler noise.
  double bare = 1e9, obs = 1e9;
  for (int i = 0; i < 3; ++i) {
    bare = std::min(bare, run_chain3(false).wall_seconds);
    obs = std::min(obs, run_chain3(true).wall_seconds);
  }
  EXPECT_LE(obs, bare * 1.03)
      << "obs-instrumented chain3: " << obs << "s vs bare " << bare << "s";
}

}  // namespace
}  // namespace bolot::obs

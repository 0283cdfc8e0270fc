// Counting-allocator regression test for the streaming estimators'
// allocation-free push paths.  Replaces the global operator new/delete
// (the event_alloc_test pattern), so it links into its own binary.
//
// The contract under test: after construction, push() on the loss and
// Lindley cores (and the Welford summary the mesh pairs with them)
// performs zero heap allocations — the constructor-reserved burst
// histogram and the workload histogram absorb the whole stream.  This is
// what makes 10^4+ concurrent per-stream estimators viable in one
// process, and TenThousandConcurrentStreamsAreAllocationFree runs exactly
// that.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "analysis/stats.h"
#include "analysis/streaming.h"
#include "util/rng.h"

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

namespace bolot::analysis {
namespace {

Duration synth_rtt(Rng& rng) {
  if (rng.chance(0.05)) return Duration::zero();  // lost probe
  return Duration::millis(rng.uniform(60.0, 140.0));
}

TEST(StreamingAllocTest, PushPathsAreAllocationFree) {
  StreamingLossState loss;
  StreamingLindleyConfig lindley_config;
  lindley_config.delta = Duration::millis(50);
  lindley_config.probe_wire = ByteSize::bytes(72);
  lindley_config.max = Duration::millis(200);
  StreamingLindley lindley(lindley_config);

  Rng rng(41);
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100'000; ++i) {
    const Duration rtt = synth_rtt(rng);
    loss.push(rtt);
    lindley.push(rtt);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);

  // The streams above were real enough to estimate from.
  EXPECT_GT(loss.stats().probes, 0u);
  EXPECT_GT(lindley.analysis().histogram.total(), 0u);
}

/// The tomography mesh's per-stream bank: loss state, Lindley inversion
/// and an rtt summary (ms, 0 for a lost probe), pushed as the mesh does.
struct MeshBank {
  explicit MeshBank(const StreamingLindleyConfig& config) : lindley(config) {}

  void push(Duration rtt) {
    const bool lost = rtt == Duration::zero();
    loss.push_lost(lost);
    lindley.push(rtt);
    summary.push(lost ? 0.0 : rtt.millis());
  }

  StreamingLossState loss;
  StreamingLindley lindley;
  StreamingSummary summary;
};

TEST(StreamingAllocTest, TenThousandConcurrentStreamsAreAllocationFree) {
  constexpr std::size_t kStreams = 10'000;
  constexpr std::size_t kProbesPerStream = 100;
  StreamingLindleyConfig config;
  config.delta = Duration::millis(20);
  config.probe_wire = ByteSize::bytes(72);
  config.bottleneck = Bandwidth::mbps(1);
  config.max = Duration::millis(200);
  std::vector<MeshBank> banks;
  banks.reserve(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) banks.emplace_back(config);

  // Round-robin: the arrival order of 10^4 live streams analyzed online.
  Rng rng(1993);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < kProbesPerStream; ++k) {
    for (MeshBank& bank : banks) bank.push(synth_rtt(rng));
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);

  std::size_t losses = 0;
  for (const MeshBank& bank : banks) {
    ASSERT_EQ(bank.loss.probes(), kProbesPerStream);
    ASSERT_EQ(bank.summary.count(), kProbesPerStream);
    ASSERT_LT(bank.lindley.samples(), kProbesPerStream);
    losses += bank.loss.losses();
  }
  // synth_rtt loses 5% of probes.
  EXPECT_NEAR(static_cast<double>(losses) / (kStreams * kProbesPerStream),
              0.05, 0.005);
}

}  // namespace
}  // namespace bolot::analysis

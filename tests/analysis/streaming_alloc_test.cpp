// Counting-allocator regression test for the streaming estimators'
// allocation-free push paths.  Replaces the global operator new/delete
// (the event_alloc_test pattern), so it links into its own binary.
//
// The contract under test: after construction, push() on the loss and
// packet-pair cores (and the Welford summary) performs zero heap
// allocations — the constructor-reserved burst histogram and pair-spacing
// capacity absorb the whole stream, and the packet-pair estimate sorts
// its spacings in place.  This is what makes 10^4+
// concurrent per-stream estimators viable in one process, and
// TenThousandConcurrentStreamsAreAllocationFree runs exactly that.
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

/// Pushes probe `seq` into a packet-pair core: pairs sent 0.2 ms apart
/// every 100 ms, the second returning one 72 B service time (4.5 ms)
/// behind the first; a lost probe is not pushed.
void push_pair_probe(StreamingPacketPair& pair, std::uint64_t seq,
                     bool lost) {
  if (lost) return;
  const double base_ms = 100.0 * static_cast<double>(seq / 2);
  const bool second = seq % 2 == 1;
  const Duration send = Duration::millis(base_ms + (second ? 0.2 : 0.0));
  const Duration back =
      Duration::millis(base_ms + 100.0 + (second ? 4.5 : 0.0));
  pair.push(seq, send, back);
}

TEST(StreamingAllocTest, PushPathsAreAllocationFree) {
  constexpr int kProbes = 100'000;
  StreamingLossState loss;
  StreamingPacketPair pair(ByteSize::bytes(72), kProbes / 2);

  Rng rng(41);
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kProbes; ++i) {
    const Duration rtt = synth_rtt(rng);
    loss.push_lost(rtt == Duration::zero());
    push_pair_probe(pair, static_cast<std::uint64_t>(i),
                    rtt == Duration::zero());
  }
  const BottleneckEstimate estimate = pair.estimate();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);

  // The streams above were real enough to estimate from.
  EXPECT_GT(loss.stats().probes, 0u);
  EXPECT_GT(pair.pairs(), 0u);
  EXPECT_NEAR(estimate.service_time_ms, 4.5, 1e-9);
}

/// A per-stream bank of every streaming core: loss state, packet pairs
/// and an rtt summary (ms, 0 for a lost probe).
struct StreamBank {
  StreamBank(ByteSize probe_wire, std::size_t max_pairs)
      : pair(probe_wire, max_pairs) {}

  void push(Duration rtt) {
    const bool lost = rtt == Duration::zero();
    push_pair_probe(pair, loss.probes(), lost);
    loss.push_lost(lost);
    summary.push(lost ? 0.0 : rtt.millis());
  }

  StreamingLossState loss;
  StreamingPacketPair pair;
  StreamingSummary summary;
};

TEST(StreamingAllocTest, TenThousandConcurrentStreamsAreAllocationFree) {
  constexpr std::size_t kStreams = 10'000;
  constexpr std::size_t kProbesPerStream = 100;
  std::vector<StreamBank> banks;
  banks.reserve(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    banks.emplace_back(ByteSize::bytes(72), kProbesPerStream / 2);
  }

  // Round-robin: the arrival order of 10^4 live streams analyzed online.
  Rng rng(1993);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < kProbesPerStream; ++k) {
    for (StreamBank& bank : banks) bank.push(synth_rtt(rng));
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);

  std::size_t losses = 0;
  for (const StreamBank& bank : banks) {
    ASSERT_EQ(bank.loss.probes(), kProbesPerStream);
    ASSERT_EQ(bank.summary.count(), kProbesPerStream);
    ASSERT_LE(bank.pair.pairs(), kProbesPerStream / 2);
    losses += bank.loss.losses();
  }
  // synth_rtt loses 5% of probes.
  EXPECT_NEAR(static_cast<double>(losses) / (kStreams * kProbesPerStream),
              0.05, 0.005);
}

}  // namespace
}  // namespace bolot::analysis

// Heap-growth regression test for the tomography mesh: a run's memory
// must not grow with its length.  Replaces the global operator new/delete
// with a byte-counting version (the streaming_alloc_test pattern), so it
// links into its own binary.
//
// The contract under test: every piece of main-flow state is per stream
// (the rtt comes from the probe's own source_ts, delay truth is
// link-local), so run_tomography's peak live heap at duration D and at 4D
// differ by at most a small constant independent of the probe count.  The
// packet-pair pass keeps one return spacing, a double, per pair (one pair
// per pair_stride probes), and its growth is bounded by exactly that.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "scenario/tomography.h"
#include "tests/scenario/tomography_ci_spec.h"

namespace {
// Each block carries its size in a max_align_t-sized header, so frees can
// be subtracted from the live total.
constexpr std::size_t kHeader = alignof(std::max_align_t);
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* counted_alloc(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  const std::int64_t live =
      g_live.fetch_add(static_cast<std::int64_t>(size)) +
      static_cast<std::int64_t>(size);
  std::int64_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(block) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  const std::size_t size = *static_cast<std::size_t*>(block);
  g_live.fetch_sub(static_cast<std::int64_t>(size));
  std::free(block);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace bolot::scenario {
namespace {

/// Slack for allocations whose size depends on what the simulated
/// traffic happened to do rather than on how many probes were sent (a
/// per-link ring reaching a new high-water mark in the longer run).  Far
/// below one 8 B double per probe: 56 streams x 600 extra probes.
constexpr std::int64_t kRunLengthSlackBytes = 4096;

/// The ci_spec mesh at duration `seconds` (200 probes per stream per 2 s).
TomographySpec mesh(std::size_t pair_stride, int seconds) {
  TomographySpec spec = ci_spec();
  spec.pair_stride = pair_stride;
  spec.duration = Duration::seconds(seconds);
  return spec;
}

/// Peak heap bytes live inside one run_tomography call, above what was
/// live when it started.
std::int64_t peak_heap_bytes(const TomographySpec& spec) {
  // The first run in the process also builds statics that outlive it
  // (about 20 KiB); that is not the run's own memory, so pay it up front.
  static const bool warmed_up = (run_tomography(mesh(0, 2)), true);
  (void)warmed_up;

  const std::int64_t before = g_live.load();
  g_peak.store(before);
  const TomographyResult result = run_tomography(spec);
  EXPECT_EQ(result.audit_loss_mismatch, 0.0);
  EXPECT_EQ(result.audit_summary_mismatch, 0.0);
  EXPECT_EQ(result.audit_lindley_mismatch, 0.0);
  EXPECT_EQ(result.audit_pair_late_returns, 0u);
  return g_peak.load() - before;
}

TEST(TomographyAllocTest, MainFlowHeapDoesNotGrowWithDuration) {
  const std::int64_t short_run = peak_heap_bytes(mesh(0, 2));
  const std::int64_t long_run = peak_heap_bytes(mesh(0, 8));
  EXPECT_LE(std::abs(long_run - short_run), kRunLengthSlackBytes)
      << "D: " << short_run << " B, 4D: " << long_run << " B";
}

TEST(TomographyAllocTest, PairPassGrowsByOneDoublePerPair) {
  constexpr std::size_t kStride = 8;  // divides both probe counts
  const TomographySpec short_spec = mesh(kStride, 2);
  const TomographySpec long_spec = mesh(kStride, 8);
  const std::int64_t short_run = peak_heap_bytes(short_spec);
  const std::int64_t long_run = peak_heap_bytes(long_spec);

  const auto extra_probes = static_cast<std::int64_t>(
      (long_spec.duration - short_spec.duration) / long_spec.delta);
  const std::int64_t streams = 8 * 7;  // ci_spec: every ordered host pair
  const std::int64_t pair_spacings_bound =
      streams * extra_probes / static_cast<std::int64_t>(kStride) *
      static_cast<std::int64_t>(sizeof(double));
  EXPECT_GE(long_run, short_run);
  EXPECT_LE(long_run - short_run, pair_spacings_bound + kRunLengthSlackBytes)
      << "D: " << short_run << " B, 4D: " << long_run << " B";
}

}  // namespace
}  // namespace bolot::scenario

// Live-heap bound on full_report.  Replaces the global operator new/delete
// (the streaming_alloc_test pattern, extended to track live bytes), so it
// links into its own binary.
//
// The contract under test: every section of full_report folds over
// trace.records in place.  Beyond the trace, the report holds one rtt
// vector (8 B per received probe), one sorted copy of it or one key per
// compression candidate at a time, and the exactly-sized phase plot it
// draws (16 B per pair); so its peak live heap above the trace stays
// within 24 B per record plus an allowance for the loss section's 1-byte
// indicators, histograms, tables and the report text.  Building a per-probe vector per estimator, as the
// one-way split, the loss/delay correlation and the ARMA fit used to,
// breaks the bound.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "analysis/report.h"
#include "tests/analysis/trace_fixtures.h"
#include "util/rng.h"

namespace {

// Each block carries its size in a header, so delete can subtract it.
constexpr std::size_t kHeader = alignof(std::max_align_t);
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void* counted_alloc(std::size_t size) {
  auto* base = static_cast<unsigned char*>(std::malloc(size + kHeader));
  if (base == nullptr) throw std::bad_alloc();
  std::memcpy(base, &size, sizeof size);
  const std::size_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  if (live > g_peak.load(std::memory_order_relaxed)) {
    g_peak.store(live, std::memory_order_relaxed);
  }
  return base + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  auto* base = static_cast<unsigned char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, base, sizeof size);
  g_live.fetch_sub(size, std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace bolot::analysis {
namespace {

constexpr std::size_t kProbes = 75'000;
constexpr std::size_t kAllowance = 256 * 1024;

/// The paper_sweep's largest trace in shape: 75,000 probes at 20 ms on
/// the 3.906 ms source clock, about 7 % loss, a compression cluster at
/// delta - 4.5 ms, and an echo stamp on every received probe.
ProbeTrace synthetic_trace() {
  constexpr double kDeltaMs = 20.0;
  constexpr double kTickMs = 3.906;
  ProbeTrace trace = testing::stream_trace(
      testing::random_rtt_stream(1993, kProbes, 0.07, kDeltaMs - 4.5,
                                 kTickMs),
      kDeltaMs, kTickMs);
  Rng rng(2011);
  for (auto& record : trace.records) {
    if (!record.received) continue;
    record.echo_time = record.send_time +
                       Duration::millis(std::floor(
                           record.rtt.millis() * rng.uniform(0.3, 0.7)));
  }
  return trace;
}

/// Peak live heap above the trace while full_report runs.
std::size_t report_peak_bytes(const ProbeTrace& trace,
                              const ReportOptions& options,
                              std::string& report) {
  const std::size_t baseline = g_live.load(std::memory_order_relaxed);
  g_peak.store(baseline, std::memory_order_relaxed);
  report = full_report(trace, options);
  return g_peak.load(std::memory_order_relaxed) - baseline;
}

TEST(ReportAllocTest, PeakLiveHeapIsOneRttVectorAndThePlot) {
  const ProbeTrace trace = synthetic_trace();
  ASSERT_EQ(trace.size(), kProbes);
  const double loss =
      static_cast<double>(trace.lost_count()) / static_cast<double>(kProbes);
  ASSERT_NEAR(loss, 0.07, 0.01);

  std::string report;
  const std::size_t peak = report_peak_bytes(trace, {}, report);
  EXPECT_LE(peak, 24 * kProbes + kAllowance) << "peak " << peak << " B";

  // Every folded section ran on this trace, not a "no data" branch.
  for (const char* line :
       {"compression fraction", " kb/s (service ", "inverting with mu",
        "loss/delay correlation", "one-way queueing split", "ARMA(1,1)",
        "Hurst (variance-time)", "phase plot"}) {
    EXPECT_NE(report.find(line), std::string::npos) << line;
  }
}

TEST(ReportAllocTest, WithoutPlotsTheRttVectorAndOneCopyRemain) {
  // The phase plot is the report's only per-pair allocation, and it is
  // always drawn.  With every other probe lost no two received probes
  // are consecutive, so the plot is empty: what remains is the rtt
  // vector, reserved at 8 B per record, and one sorted copy, 8 B per
  // received probe.  That peak is in the delay section, where only its
  // tables and the report text sit beside the two vectors, so the
  // allowance is a quarter of the full trace's: an extra per-probe vector
  // beside them breaks the bound.
  ProbeTrace trace = synthetic_trace();
  for (std::size_t n = 1; n < trace.records.size(); n += 2) {
    trace.records[n].received = false;
  }
  const std::size_t received = trace.received_count();
  ASSERT_GT(received, kProbes / 3);
  std::string report;
  const std::size_t peak = report_peak_bytes(trace, {}, report);
  EXPECT_LE(peak, 8 * kProbes + 8 * received + kAllowance / 4)
      << "peak " << peak << " B";
  EXPECT_NE(report.find("phase plot"), std::string::npos);
  EXPECT_NE(report.find("ARMA(1,1)"), std::string::npos);
}

}  // namespace
}  // namespace bolot::analysis

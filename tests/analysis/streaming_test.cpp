// Streaming estimator tests (docs/ESTIMATORS.md states the per-estimator
// contract these tests pin).  loss_stats, fit_gilbert and analyze_workload
// are folds over StreamingLossState and StreamingLindley, so their outputs
// are pinned in loss_test / lindley_test instead; what stays here is what
// a fold cannot show: snapshots taken mid-stream, the online accessors,
// the push(Duration) convention, and the one-pass estimator's own
// argument checks.
#include "analysis/streaming.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/lindley.h"
#include "analysis/loss.h"
#include "trace_fixtures.h"

namespace bolot::analysis {
namespace {

using testing::random_gilbert_losses;
using testing::random_rtt_stream;
using testing::stream_trace;

// ---------------------------------------------------------------------------
// StreamingLossState
// ---------------------------------------------------------------------------

void expect_loss_stats_equal(const LossStats& got, const LossStats& want) {
  EXPECT_EQ(got.probes, want.probes);
  EXPECT_EQ(got.losses, want.losses);
  EXPECT_EQ(got.ulp, want.ulp);
  EXPECT_EQ(got.clp, want.clp);
  EXPECT_EQ(got.plg_from_clp, want.plg_from_clp);
  EXPECT_EQ(got.mean_burst_length, want.mean_burst_length);
  EXPECT_EQ(got.burst_length_counts, want.burst_length_counts);
}

TEST(StreamingLossStateTest, SnapshotMatchesBatchAtEveryPrefix) {
  const auto losses = random_gilbert_losses(7, 0.3, 0.4, 300);
  StreamingLossState streaming;
  for (std::size_t n = 0; n < losses.size(); ++n) {
    streaming.push_lost(losses[n] != 0);
    const auto prefix =
        std::span<const std::uint8_t>(losses.data(), n + 1);
    expect_loss_stats_equal(streaming.stats(), loss_stats(prefix));
  }
}

TEST(StreamingLossStateTest, DegenerateChainsMatchBatch) {
  for (bool all_lost : {true, false}) {
    StreamingLossState streaming;
    for (int i = 0; i < 10; ++i) streaming.push_lost(all_lost);
    const GilbertFit fit = streaming.gilbert();
    EXPECT_EQ(fit.p, all_lost ? 1.0 : 0.0);
    EXPECT_EQ(fit.q, all_lost ? 0.0 : 1.0);
    EXPECT_TRUE(fit.degenerate);
    const LossStats stats = streaming.stats();
    EXPECT_EQ(stats.ulp, all_lost ? 1.0 : 0.0);
    EXPECT_EQ(stats.mean_burst_length, all_lost ? 10.0 : 0.0);
  }
}

TEST(StreamingLossStateTest, EmptyThrowsLikeBatch) {
  StreamingLossState streaming;
  EXPECT_THROW(streaming.stats(), std::invalid_argument);
  EXPECT_THROW(streaming.gilbert(), std::invalid_argument);
  streaming.push_lost(false);
  EXPECT_THROW(streaming.gilbert(), std::invalid_argument);
  EXPECT_EQ(streaming.stats().probes, 1u);
}

// ---------------------------------------------------------------------------
// StreamingLindley
// ---------------------------------------------------------------------------

TEST(StreamingLindleyTest, OnlineAccessorsMatchBatchAtPrefixes) {
  const double delta_ms = 20.0;
  const auto rtts = random_rtt_stream(13, 2000, 0.1, 8.0, 0.0);
  StreamingLindleyConfig config;
  config.delta = Duration::millis(delta_ms);
  config.probe_wire = ByteSize::bytes(72);
  config.max = Duration::millis(100);
  StreamingLindley streaming(config);

  std::vector<std::optional<double>> prefix;
  for (const auto& r : rtts) {
    prefix.push_back(r);
    streaming.push(r ? Duration::millis(*r) : Duration::zero());
  }
  const ProbeTrace trace = stream_trace(prefix, delta_ms, 0.0);
  WorkloadOptions options;
  options.max_ms = config.max.millis();
  const WorkloadAnalysis batch = analyze_workload(trace, options);
  EXPECT_EQ(streaming.mean_workload_bits(), batch.mean_workload_bits);
  EXPECT_EQ(streaming.busy_sample_fraction(), batch.busy_sample_fraction);
  EXPECT_EQ(streaming.samples(), workload_samples_ms(trace).size());
}

TEST(StreamingLindleyTest, RequiresExplicitHistogramEdge) {
  StreamingLindleyConfig config;
  config.delta = Duration::millis(50);
  config.probe_wire = ByteSize::bytes(72);
  config.max = Duration::zero();  // batch would auto-size; streaming cannot
  EXPECT_THROW(StreamingLindley{config}, std::invalid_argument);
}

TEST(StreamingLindleyTest, NoPairsThrowsLikeBatch) {
  StreamingLindleyConfig config;
  config.delta = Duration::millis(50);
  config.probe_wire = ByteSize::bytes(72);
  config.max = Duration::millis(100);
  StreamingLindley streaming(config);
  streaming.push(Duration::millis(80));
  streaming.push(Duration::zero());  // loss breaks the only pair
  streaming.push(Duration::millis(90));
  EXPECT_THROW(streaming.analysis(), std::invalid_argument);
}

}  // namespace
}  // namespace bolot::analysis

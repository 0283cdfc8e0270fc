// Every report estimator that folds over the trace returns exactly what
// the vector formula it replaced returned (tests/analysis/vector_oracles.h),
// compared with EXPECT_EQ on the doubles, over 20 seeded traces with
// losses, echo stamps and tied rtts (half of them on a quantized clock).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "analysis/ar_model.h"
#include "analysis/arma_model.h"
#include "analysis/lindley.h"
#include "analysis/one_way.h"
#include "analysis/phase_plot.h"
#include "analysis/reorder.h"
#include "analysis/stats.h"
#include "tests/analysis/trace_fixtures.h"
#include "tests/analysis/vector_oracles.h"
#include "util/rng.h"

namespace bolot::analysis {
namespace {

constexpr int kTraces = 20;

/// Trace `seed`: a random_rtt_stream with a compression cluster at
/// delta - 4.5 ms (72 B at 128 kb/s), 3-12 % loss, odd seeds on the
/// paper's 3.906 ms clock (ties everywhere), and an echo stamp splitting
/// each rtt at a random point.
ProbeTrace seeded_trace(int seed) {
  const double deltas_ms[] = {20.0, 50.0, 100.0};
  const double delta_ms = deltas_ms[seed % 3];
  const double tick_ms = seed % 2 == 1 ? 3.906 : 0.0;
  const auto n = static_cast<std::size_t>(2000 + 300 * seed);
  const double loss = 0.03 + 0.005 * static_cast<double>(seed % 19);
  ProbeTrace trace = testing::stream_trace(
      testing::random_rtt_stream(static_cast<std::uint64_t>(100 + seed), n,
                                 loss, delta_ms - 4.5, tick_ms),
      delta_ms, tick_ms);
  Rng rng(static_cast<std::uint64_t>(500 + seed));
  for (auto& record : trace.records) {
    if (!record.received) continue;
    // Whole-ms outbound legs repeat often: ties in the one-way columns.
    const double outbound_ms =
        std::floor(record.rtt.millis() * rng.uniform(0.3, 0.7));
    record.echo_time = record.send_time + Duration::millis(outbound_ms);
  }
  return trace;
}

void expect_summary_eq(const Summary& fold, const Summary& vec) {
  EXPECT_EQ(fold.count, vec.count);
  EXPECT_EQ(fold.mean, vec.mean);
  EXPECT_EQ(fold.variance, vec.variance);
  EXPECT_EQ(fold.stddev, vec.stddev);
  EXPECT_EQ(fold.min, vec.min);
  EXPECT_EQ(fold.max, vec.max);
}

TEST(FoldEqualityTest, OneWaySplit) {
  for (int seed = 0; seed < kTraces; ++seed) {
    SCOPED_TRACE(seed);
    const ProbeTrace trace = seeded_trace(seed);
    const OneWayAnalysis fold = analyze_one_way(trace);
    const OneWayAnalysis vec = oracle::analyze_one_way(trace);
    expect_summary_eq(fold.outbound, vec.outbound);
    expect_summary_eq(fold.return_leg, vec.return_leg);
    expect_summary_eq(fold.outbound_queueing, vec.outbound_queueing);
    expect_summary_eq(fold.return_queueing, vec.return_queueing);
    EXPECT_EQ(fold.outbound_queueing_share, vec.outbound_queueing_share);
  }
}

TEST(FoldEqualityTest, LossDelayCorrelation) {
  for (int seed = 0; seed < kTraces; ++seed) {
    SCOPED_TRACE(seed);
    const ProbeTrace trace = seeded_trace(seed);
    EXPECT_EQ(loss_delay_correlation(trace),
              oracle::loss_delay_correlation(trace));
    // pearson() over the stored columns is the same fold.
    const auto [losses, rtts] = oracle::loss_delay_columns(trace);
    EXPECT_EQ(pearson(losses, rtts), oracle::pearson(losses, rtts));
  }
}

TEST(FoldEqualityTest, PhasePlotAndItsGeometry) {
  int with_intercept = 0;
  for (int seed = 0; seed < kTraces; ++seed) {
    SCOPED_TRACE(seed);
    const ProbeTrace trace = seeded_trace(seed);
    const PhasePlot plot = build_phase_plot(trace);
    const PhasePlot vec_plot = oracle::phase_plot(trace);
    EXPECT_EQ(plot.x, vec_plot.x);
    EXPECT_EQ(plot.y, vec_plot.y);
    EXPECT_EQ(plot.x.capacity(), plot.size());  // exactly sized
    EXPECT_EQ(plot.y.capacity(), plot.size());

    const PhaseAnalysis fold = analyze_phase_plot(trace);
    const PhaseAnalysis vec = oracle::analyze_phase_plot(trace);
    EXPECT_EQ(fold.fixed_delay_ms, vec.fixed_delay_ms);
    EXPECT_EQ(fold.compression_intercept_ms, vec.compression_intercept_ms);
    EXPECT_EQ(fold.compression_fraction, vec.compression_fraction);
    EXPECT_EQ(fold.diagonal_fraction, vec.diagonal_fraction);
    with_intercept += fold.compression_intercept_ms ? 1 : 0;
  }
  // The cluster search on both clocks, not just the no-cluster path, was
  // compared.
  EXPECT_GT(with_intercept, kTraces / 2);
}

TEST(FoldEqualityTest, BottleneckAndWorkloadEdge) {
  int estimated = 0;
  for (int seed = 0; seed < kTraces; ++seed) {
    SCOPED_TRACE(seed);
    const ProbeTrace trace = seeded_trace(seed);
    std::optional<BottleneckEstimate> fold, vec;
    try {
      fold = estimate_bottleneck(trace);
    } catch (const std::exception&) {
    }
    try {
      vec = oracle::estimate_bottleneck(trace);
    } catch (const std::exception&) {
    }
    ASSERT_EQ(fold.has_value(), vec.has_value());
    if (fold) {
      ++estimated;
      EXPECT_EQ(fold->service_time_ms, vec->service_time_ms);
      EXPECT_EQ(fold->mu_bps, vec->mu_bps);
      EXPECT_EQ(fold->cluster_samples, vec->cluster_samples);
      EXPECT_EQ(fold->cluster_fraction, vec->cluster_fraction);
    }

    // workload_samples_ms is the stored walk; analyze_workload's
    // pre-pass sizes the auto edge exactly as the max over it did.
    const std::vector<double> samples = oracle::workload_samples(trace);
    EXPECT_EQ(workload_samples_ms(trace), samples);
    WorkloadOptions options;
    options.bottleneck_bps = 128e3;
    double max_g = 0.0;
    for (double g : samples) max_g = std::max(max_g, g);
    WorkloadOptions pinned = options;
    pinned.max_ms = std::max(max_g * 1.05, trace.delta.millis() * 2.0);
    const WorkloadAnalysis automatic = analyze_workload(trace, options);
    const WorkloadAnalysis sized = analyze_workload(trace, pinned);
    EXPECT_EQ(automatic.histogram.centers(), sized.histogram.centers());
    EXPECT_EQ(automatic.histogram.densities(), sized.histogram.densities());
    EXPECT_EQ(automatic.mean_workload_bits, sized.mean_workload_bits);
    EXPECT_EQ(automatic.busy_sample_fraction, sized.busy_sample_fraction);
  }
  EXPECT_GT(estimated, kTraces / 2);
}

TEST(FoldEqualityTest, ArAndArmaModels) {
  // (p, q) cycles through pure AR, pure MA and mixed orders so the
  // innovation ring runs at q = 0, 1 and 2.
  const std::size_t orders[][2] = {{1, 1}, {2, 1}, {0, 2}, {2, 2}, {3, 0}};
  for (int seed = 0; seed < kTraces; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<double> rtts = seeded_trace(seed).rtt_ms_received();

    const ArModel ar = fit_ar(rtts, 1 + static_cast<std::size_t>(seed % 3));
    EXPECT_EQ(ar_r_squared(ar, rtts), oracle::ar_r_squared(ar, rtts));

    const std::size_t p = orders[seed % 5][0];
    const std::size_t q = orders[seed % 5][1];
    const ArmaModel fold = fit_arma(rtts, p, q);
    const ArmaModel vec = oracle::fit_arma(rtts, p, q);
    EXPECT_EQ(fold.ar, vec.ar);
    EXPECT_EQ(fold.ma, vec.ma);
    EXPECT_EQ(fold.mean, vec.mean);
    EXPECT_EQ(fold.noise_variance, vec.noise_variance);
    EXPECT_EQ(arma_r_squared(fold, rtts), oracle::arma_r_squared(vec, rtts));
  }
}

}  // namespace
}  // namespace bolot::analysis

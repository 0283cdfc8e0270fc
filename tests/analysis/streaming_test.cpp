// Streaming estimator tests (docs/ESTIMATORS.md states the per-estimator
// contract these tests pin).  loss_stats, fit_gilbert and analyze_workload
// are folds over StreamingLossState and StreamingLindley, so their outputs
// are pinned in loss_test / lindley_test instead; what stays here is what
// a fold cannot show: snapshots taken mid-stream, the push(Duration)
// convention, and the phase fit and acf, whose batch forms remain the
// reference implementations.
//
// The random streams are large (10^6 samples) on purpose: the algebraic
// acf expansion and the phase-fit centroids have to hold up over long
// horizons, not toy inputs.
#include "analysis/streaming.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/lindley.h"
#include "analysis/loss.h"
#include "analysis/phase_plot.h"
#include "analysis/stats.h"
#include "trace_fixtures.h"
#include "util/rng.h"

namespace bolot::analysis {
namespace {

using testing::kMillionSamples;
using testing::random_gilbert_losses;
using testing::random_rtt_stream;

// |a - b| <= tol * max(1, |b|): relative where the scale allows, absolute
// near zero.
void expect_close(double a, double b, double tol = 1e-9) {
  EXPECT_LE(std::abs(a - b), tol * std::max(1.0, std::abs(b)))
      << "a=" << a << " b=" << b;
}

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
// Shared random-walk rtt stream
// ---------------------------------------------------------------------------

ProbeTrace stream_trace(const std::vector<std::optional<double>>& rtts,
                        double delta_ms, double tick_ms) {
  return testing::make_trace(delta_ms, rtts, /*probe_wire_bytes=*/72,
                             tick_ms);
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

// ---------------------------------------------------------------------------
// StreamingPhaseFit
// ---------------------------------------------------------------------------

void expect_phase_estimates_close(const PhaseAnalysis& got,
                                  const PhaseAnalysis& batch, double tol) {
  expect_close(got.fixed_delay_ms, batch.fixed_delay_ms, tol);
  ASSERT_EQ(got.compression_intercept_ms.has_value(),
            batch.compression_intercept_ms.has_value());
  if (batch.compression_intercept_ms) {
    expect_close(*got.compression_intercept_ms,
                 *batch.compression_intercept_ms, tol);
  }
  ASSERT_EQ(got.bottleneck_bps.has_value(), batch.bottleneck_bps.has_value());
  if (batch.bottleneck_bps) {
    expect_close(*got.bottleneck_bps, *batch.bottleneck_bps, tol);
  }
  expect_close(got.diagonal_fraction, batch.diagonal_fraction, tol);
}

TEST(StreamingPhaseFitTest, QuantizedClockMatchesBatchOnMillionSamples) {
  // The paper's DECstation regime: 3.906 ms tick (a whole 3906 us).
  const double tick_ms = 3.906;
  const double delta_ms = 50.0;
  const auto rtts = random_rtt_stream(17, kMillionSamples, 0.05,
                                      /*descent_ms=*/5.0 * tick_ms, tick_ms);
  const ProbeTrace trace = stream_trace(rtts, delta_ms, tick_ms);

  StreamingPhaseFitConfig config;
  config.delta = trace.delta;
  config.probe_wire = ByteSize::bytes(trace.probe_wire_bytes);
  config.clock_tick = trace.clock_tick;
  StreamingPhaseFit streaming(config);
  for (const auto& r : trace.records) streaming.push(r.rtt);

  const PhaseAnalysis batch = analyze_phase_plot(trace);
  const PhaseAnalysis got = streaming.estimate();
  expect_phase_estimates_close(got, batch, 1e-9);
  // Quantized clocks keep the band counts exact too.
  EXPECT_TRUE(streaming.fractions_exact());
  expect_close(got.compression_fraction, batch.compression_fraction, 1e-9);
}

TEST(StreamingPhaseFitTest, ExactClockEstimatesMatchBatchOnMillionSamples) {
  const double delta_ms = 50.0;
  const auto rtts = random_rtt_stream(19, kMillionSamples, 0.05,
                                      /*descent_ms=*/19.53, /*tick_ms=*/0.0);
  const ProbeTrace trace = stream_trace(rtts, delta_ms, 0.0);

  StreamingPhaseFitConfig config;
  config.delta = trace.delta;
  config.probe_wire = ByteSize::bytes(trace.probe_wire_bytes);
  config.clock_tick = Duration::zero();
  StreamingPhaseFit streaming(config);
  for (const auto& r : trace.records) streaming.push(r.rtt);

  const PhaseAnalysis batch = analyze_phase_plot(trace);
  const PhaseAnalysis got = streaming.estimate();
  expect_phase_estimates_close(got, batch, 1e-9);
  // Exact clocks: compression_fraction is the documented histogram
  // approximation, bounded by the boundary-bin mass.
  EXPECT_FALSE(streaming.fractions_exact());
  EXPECT_NEAR(got.compression_fraction, batch.compression_fraction, 0.02);
}

TEST(StreamingPhaseFitTest, NoClusterMatchesBatch) {
  // Diagonal-only stream: no descents above min_intercept_fraction*delta.
  std::vector<std::optional<double>> rtts;
  Rng rng(23);
  double rtt = 100.0;
  for (int i = 0; i < 5000; ++i) {
    rtt += rng.uniform(-1.0, 1.0);
    rtts.push_back(rtt);
  }
  const ProbeTrace trace = stream_trace(rtts, 50.0, 0.0);
  StreamingPhaseFitConfig config;
  config.delta = trace.delta;
  config.probe_wire = ByteSize::bytes(trace.probe_wire_bytes);
  StreamingPhaseFit streaming(config);
  for (const auto& r : trace.records) streaming.push(r.rtt);
  const PhaseAnalysis batch = analyze_phase_plot(trace);
  const PhaseAnalysis got = streaming.estimate();
  EXPECT_FALSE(batch.compression_intercept_ms.has_value());
  EXPECT_FALSE(got.compression_intercept_ms.has_value());
  expect_close(got.fixed_delay_ms, batch.fixed_delay_ms);
  expect_close(got.diagonal_fraction, batch.diagonal_fraction);
  EXPECT_EQ(got.compression_fraction, batch.compression_fraction);
}

TEST(StreamingPhaseFitTest, NoPairsThrowsLikeBatch) {
  StreamingPhaseFitConfig config;
  config.delta = Duration::millis(50);
  config.probe_wire = ByteSize::bytes(72);
  StreamingPhaseFit streaming(config);
  streaming.push(Duration::millis(80));
  EXPECT_THROW(streaming.estimate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// StreamingAutocorr
// ---------------------------------------------------------------------------

TEST(StreamingAutocorrTest, AcfMatchesBatchOnMillionSampleArStream) {
  Rng rng(31);
  const std::size_t max_lag = 64;
  std::vector<double> xs;
  StreamingAutocorr streaming(max_lag);
  double x = 0.0;
  for (std::size_t i = 0; i < kMillionSamples; ++i) {
    x = 0.8 * x + rng.normal(0.0, 1.0);  // AR(1): slowly decaying acf
    const double value = 120.0 + x;      // rtt-like offset
    xs.push_back(value);
    streaming.push(value);
  }
  const std::vector<double> batch = autocorrelation(xs, max_lag);
  const std::vector<double> got = streaming.acf();
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t lag = 0; lag < batch.size(); ++lag) {
    expect_close(got[lag], batch[lag], 1e-9);
  }
}

TEST(StreamingAutocorrTest, ShortStreamsClampLagLikeBatch) {
  StreamingAutocorr streaming(10);
  std::vector<double> xs = {1.0, 2.0, 4.0, 1.0};
  for (double v : xs) streaming.push(v);
  const auto batch = autocorrelation(xs, 10);
  const auto got = streaming.acf();
  ASSERT_EQ(got.size(), batch.size());  // clamped to n - 1 lags
  for (std::size_t lag = 0; lag < batch.size(); ++lag) {
    expect_close(got[lag], batch[lag], 1e-12);
  }
}

TEST(StreamingAutocorrTest, DegenerateStreamsThrowLikeBatch) {
  StreamingAutocorr empty(4);
  EXPECT_THROW(empty.acf(), std::invalid_argument);
  StreamingAutocorr constant(4);
  for (int i = 0; i < 100; ++i) constant.push(5.0);
  EXPECT_THROW(constant.acf(), std::invalid_argument);
}

}  // namespace
}  // namespace bolot::analysis

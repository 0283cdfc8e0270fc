#include "analysis/phase_plot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "analysis/lindley.h"
#include "tests/analysis/trace_fixtures.h"
#include "util/rng.h"

namespace bolot::analysis {
namespace {

using testing::kMillionSamples;
using testing::make_trace;
using testing::random_rtt_stream;
using testing::stream_trace;

TEST(BuildPhasePlotTest, PairsConsecutiveReceivedProbes) {
  const auto trace =
      make_trace(50, {100.0, 110.0, std::nullopt, 120.0, 130.0});
  const PhasePlot plot = build_phase_plot(trace);
  // Pairs: (0,1), (3,4); pairs (1,2) and (2,3) are broken by the loss.
  ASSERT_EQ(plot.size(), 2u);
  EXPECT_EQ(plot.x[0], 100.0);
  EXPECT_EQ(plot.y[0], 110.0);
  EXPECT_EQ(plot.x[1], 120.0);
  EXPECT_EQ(plot.y[1], 130.0);
}

TEST(BuildPhasePlotTest, EmptyAndAllLost) {
  EXPECT_EQ(build_phase_plot(make_trace(50, {})).size(), 0u);
  EXPECT_EQ(
      build_phase_plot(make_trace(50, {std::nullopt, std::nullopt})).size(),
      0u);
  EXPECT_THROW(analyze_phase_plot(make_trace(50, {})), std::invalid_argument);
}

TEST(AnalyzePhasePlotTest, FixedDelayIsMinimumRtt) {
  const auto trace = make_trace(50, {150.0, 141.0, 160.0, 170.0});
  const PhaseAnalysis a = analyze_phase_plot(trace);
  EXPECT_DOUBLE_EQ(a.fixed_delay_ms, 141.0);
}

// Synthesize the paper's Fig.-2 geometry: a compression episode where
// rtts descend in exact steps of delta - P/mu, plus diagonal noise.
ProbeTrace compression_trace(double delta_ms, double service_ms,
                             double tick_ms = 0.0) {
  std::vector<std::optional<double>> rtts;
  Rng rng(17);
  double level = 145.0;
  for (int block = 0; block < 60; ++block) {
    // Diagonal segment: slowly varying rtts.
    for (int i = 0; i < 10; ++i) {
      level = 145.0 + rng.uniform(0.0, 2.0);
      rtts.push_back(level);
    }
    // Compression episode: a jump followed by a descending staircase.
    double rtt = 145.0 + 5.0 * (delta_ms - service_ms);
    while (rtt > 145.0 + (delta_ms - service_ms)) {
      rtts.push_back(rtt);
      rtt -= (delta_ms - service_ms);
    }
  }
  auto trace = make_trace(delta_ms, rtts, 72, tick_ms);
  if (tick_ms > 0.0) {
    // Quantize rtts the way a coarse source clock would.
    for (auto& record : trace.records) {
      const double q =
          std::floor(record.rtt.millis() / tick_ms) * tick_ms;
      record.rtt = Duration::millis(q);
    }
  }
  return trace;
}

TEST(AnalyzePhasePlotTest, RecoversCompressionInterceptExactClock) {
  // delta = 50, P/mu = 4.5 ms -> intercept c = 45.5 ms.
  const auto trace = compression_trace(50.0, 4.5);
  const PhaseAnalysis a = analyze_phase_plot(trace);
  ASSERT_TRUE(a.compression_intercept_ms.has_value());
  EXPECT_NEAR(*a.compression_intercept_ms, 45.5, 0.3);
  EXPECT_NEAR(estimate_bottleneck(trace).mu_bps, 128e3, 10e3);
  EXPECT_GT(a.compression_fraction, 0.1);
  EXPECT_GT(a.diagonal_fraction, 0.3);
}

TEST(AnalyzePhasePlotTest, RecoversInterceptUnderQuantization) {
  // Same geometry, but rtts floored to the DECstation tick.
  const auto trace = compression_trace(50.0, 4.5, 3.906);
  const PhaseAnalysis a = analyze_phase_plot(trace);
  ASSERT_TRUE(a.compression_intercept_ms.has_value());
  // The discrete mode-pair centroid stays within a tick of the truth.
  EXPECT_NEAR(*a.compression_intercept_ms, 45.5, 3.906);
}

TEST(AnalyzePhasePlotTest, NoCompressionMeansNoIntercept) {
  // Pure diagonal scatter (the paper's Fig.-4 regime).
  std::vector<std::optional<double>> rtts;
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    rtts.push_back(145.0 + rng.uniform(0.0, 3.0));
  }
  const auto trace = make_trace(500.0, rtts);
  const PhaseAnalysis a = analyze_phase_plot(trace);
  EXPECT_FALSE(a.compression_intercept_ms.has_value());
  EXPECT_THROW(estimate_bottleneck(trace), std::runtime_error);
  EXPECT_EQ(a.compression_fraction, 0.0);
  EXPECT_GT(a.diagonal_fraction, 0.9);
}

TEST(AnalyzePhasePlotTest, DiagonalFractionCountsSmallDescents) {
  const auto trace = make_trace(50, {100.0, 101.0, 100.5, 100.0});
  const PhaseAnalysis a = analyze_phase_plot(trace);
  EXPECT_DOUBLE_EQ(a.diagonal_fraction, 1.0);
}

// Property sweep: the intercept estimator tracks the configured service
// time across a range of bottleneck rates.
class InterceptSweep : public ::testing::TestWithParam<double> {};

TEST_P(InterceptSweep, InterceptMatchesServiceTime) {
  const double service_ms = GetParam();
  const auto trace = compression_trace(50.0, service_ms);
  const PhaseAnalysis a = analyze_phase_plot(trace);
  ASSERT_TRUE(a.compression_intercept_ms.has_value());
  EXPECT_NEAR(*a.compression_intercept_ms, 50.0 - service_ms, 0.5);
}

INSTANTIATE_TEST_SUITE_P(ServiceTimes, InterceptSweep,
                         ::testing::Values(2.0, 4.5, 8.0, 12.0, 20.0));

struct PhasePins {
  double fixed_delay_ms;
  double compression_intercept_ms;
  double mu_bps;
  double compression_fraction;
  double diagonal_fraction;
};

void expect_pinned(const ProbeTrace& trace, const PhasePins& want) {
  const PhaseAnalysis got = analyze_phase_plot(trace);
  EXPECT_EQ(got.fixed_delay_ms, want.fixed_delay_ms);
  ASSERT_TRUE(got.compression_intercept_ms.has_value());
  EXPECT_EQ(*got.compression_intercept_ms, want.compression_intercept_ms);
  EXPECT_EQ(estimate_bottleneck(trace).mu_bps, want.mu_bps);
  EXPECT_EQ(got.compression_fraction, want.compression_fraction);
  EXPECT_EQ(got.diagonal_fraction, want.diagonal_fraction);
}

// Bit-exact pins over 10^6-sample random walks with loss gaps and an
// injected compression cluster, one per clock regime: at this scale the
// adjacent-tick search, the centroid windows and the band counts all see
// real boundary mass.
TEST(AnalyzePhasePlotTest, MillionSampleStreamsArePinned) {
  const double tick_ms = 3.906;  // the paper's DECstation clock
  const ProbeTrace quantized = stream_trace(
      random_rtt_stream(17, kMillionSamples, 0.05,
                        /*descent_ms=*/5.0 * tick_ms, tick_ms),
      50.0, tick_ms);
  expect_pinned(quantized,
                {0x1.387ae147ae147p+5, 0x1.359415455a085p+4,
                 0x1.259ffc4ad4e78p+14, 0x1.5bcf0929f4cd1p-4,
                 0x1.91a7fb7aa6e22p-1});

  const ProbeTrace exact = stream_trace(
      random_rtt_stream(19, kMillionSamples, 0.05, /*descent_ms=*/19.53,
                        /*tick_ms=*/0.0),
      50.0, 0.0);
  expect_pinned(exact,
                {0x1.400005c4651f4p+5, 0x1.387ae147aef4dp+4,
                 0x1.275f5bffaa7f5p+14, 0x1.516e1e6b0b3a6p-4,
                 0x1.63ac39433f3c6p-1});
}

}  // namespace
}  // namespace bolot::analysis

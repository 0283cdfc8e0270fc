#include "analysis/one_way.h"

#include <gtest/gtest.h>

#include "tests/analysis/trace_fixtures.h"

namespace bolot::analysis {
namespace {

using testing::make_trace;

/// Builds a trace with explicit outbound/return one-way delays (ms).
ProbeTrace asymmetric_trace(const std::vector<std::pair<double, double>>& legs,
                            double delta_ms = 50) {
  std::vector<std::optional<double>> rtts;
  rtts.reserve(legs.size());
  for (const auto& [out, back] : legs) rtts.push_back(out + back);
  auto trace = make_trace(delta_ms, rtts);
  for (std::size_t i = 0; i < legs.size(); ++i) {
    trace.records[i].echo_time =
        trace.records[i].send_time + Duration::millis(legs[i].first);
  }
  return trace;
}

TEST(OneWayTest, SamplesDecomposeRtt) {
  const auto trace = asymmetric_trace({{70.0, 75.0}, {80.0, 72.0}});
  const OneWayAnalysis analysis = analyze_one_way(trace);
  ASSERT_EQ(analysis.outbound.count, 2u);
  EXPECT_NEAR(analysis.outbound.min, 70.0, 1e-9);
  EXPECT_NEAR(analysis.outbound.max, 80.0, 1e-9);
  EXPECT_NEAR(analysis.return_leg.min, 72.0, 1e-9);
  EXPECT_NEAR(analysis.return_leg.max, 75.0, 1e-9);
  // Queueing above each leg's minimum: outbound {0, 10}, return {3, 0}.
  EXPECT_NEAR(analysis.outbound_queueing.mean, 5.0, 1e-9);
  EXPECT_NEAR(analysis.return_queueing.mean, 1.5, 1e-9);
  EXPECT_NEAR(analysis.outbound_queueing_share, 5.0 / 6.5, 1e-12);
}

TEST(OneWayTest, SkipsLostAndUnstampedRecords) {
  auto trace = asymmetric_trace({{70.0, 75.0}, {80.0, 72.0}, {90.0, 60.0}});
  trace.records[1].echo_time = Duration::zero();  // no echo stamp
  trace.records[2].received = false;              // lost
  const OneWayAnalysis analysis = analyze_one_way(trace);
  ASSERT_EQ(analysis.outbound.count, 1u);
  EXPECT_NEAR(analysis.outbound.mean, 70.0, 1e-9);
  EXPECT_NEAR(analysis.return_leg.mean, 75.0, 1e-9);
}

TEST(OneWayTest, DetectsForwardPathCongestion) {
  // Outbound queueing dominates: all variability on the first leg.
  std::vector<std::pair<double, double>> legs;
  for (int i = 0; i < 100; ++i) {
    legs.push_back({70.0 + (i % 10) * 5.0, 70.0});
  }
  const auto analysis = analyze_one_way(asymmetric_trace(legs));
  EXPECT_GT(analysis.outbound_queueing_share, 0.95);
  EXPECT_NEAR(analysis.return_queueing.mean, 0.0, 1e-9);
  EXPECT_NEAR(analysis.outbound.min, 70.0, 1e-9);
}

TEST(OneWayTest, SymmetricCongestionSplitsEvenly) {
  std::vector<std::pair<double, double>> legs;
  for (int i = 0; i < 100; ++i) {
    const double q = (i % 10) * 3.0;
    legs.push_back({70.0 + q, 70.0 + q});
  }
  const auto analysis = analyze_one_way(asymmetric_trace(legs));
  EXPECT_NEAR(analysis.outbound_queueing_share, 0.5, 0.02);
}

TEST(OneWayTest, OffsetFreeUnderClockSkew) {
  // Add a constant 1000 ms clock offset to the echo host: raw outbound
  // values shift, but queueing components are offset-free.
  std::vector<std::pair<double, double>> legs;
  for (int i = 0; i < 50; ++i) legs.push_back({70.0 + (i % 5), 70.0});
  auto trace = asymmetric_trace(legs);
  for (auto& record : trace.records) {
    record.echo_time += Duration::millis(1000);
  }
  const auto analysis = analyze_one_way(trace);
  EXPECT_NEAR(analysis.outbound.min, 1070.0, 1e-9);  // offset visible here
  EXPECT_NEAR(analysis.outbound_queueing.max, 4.0, 1e-9);  // but not here
}

TEST(OneWayTest, ThrowsWithoutEchoTimestamps) {
  const auto trace = make_trace(50, {141.0, 142.0});
  EXPECT_THROW(analyze_one_way(trace), std::invalid_argument);
}

}  // namespace
}  // namespace bolot::analysis

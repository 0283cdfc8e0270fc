#include "analysis/probe_trace.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/lindley.h"
#include "analysis/loss.h"
#include "analysis/phase_plot.h"
#include "analysis/reorder.h"
#include "tests/analysis/trace_fixtures.h"

namespace bolot::analysis {
namespace {

using testing::make_trace;

TEST(ProbeTraceTest, Counts) {
  const auto trace = make_trace(50, {100.0, std::nullopt, 120.0});
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.received_count(), 2u);
  EXPECT_EQ(trace.lost_count(), 1u);
}

TEST(ProbeTraceTest, RttWithLossesUsesZeroConvention) {
  const auto trace = make_trace(50, {100.0, std::nullopt, 120.0});
  const auto rtts = trace.rtt_ms_with_losses();
  ASSERT_EQ(rtts.size(), 3u);
  EXPECT_EQ(rtts[0], 100.0);
  EXPECT_EQ(rtts[1], 0.0);  // the paper's rtt_n = 0 for lost probes
  EXPECT_EQ(rtts[2], 120.0);
}

TEST(ProbeTraceTest, RttReceivedSkipsLosses) {
  const auto trace = make_trace(50, {100.0, std::nullopt, 120.0});
  const auto rtts = trace.rtt_ms_received();
  ASSERT_EQ(rtts.size(), 2u);
  EXPECT_EQ(rtts[0], 100.0);
  EXPECT_EQ(rtts[1], 120.0);
}

TEST(ProbeTraceTest, LossIndicators) {
  const auto trace = make_trace(50, {100.0, std::nullopt, 120.0});
  const auto losses = trace.loss_indicators();
  EXPECT_EQ(losses, (std::vector<std::uint8_t>{0, 1, 0}));
}

TEST(ProbeTraceTest, EmptyTrace) {
  const auto trace = make_trace(50, {});
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.received_count(), 0u);
  EXPECT_TRUE(trace.rtt_ms_with_losses().empty());
  EXPECT_TRUE(trace.rtt_ms_received().empty());
}

TEST(ProbeTraceTest, SendTimesFollowDelta) {
  const auto trace = make_trace(20, {100.0, 101.0, 102.0});
  EXPECT_EQ(trace.records[1].send_time - trace.records[0].send_time,
            Duration::millis(20));
  EXPECT_EQ(trace.records[2].send_time - trace.records[1].send_time,
            Duration::millis(20));
}

TEST(ValidateProbeOrderTest, AcceptsSortedAndTrivialTraces) {
  EXPECT_NO_THROW(validate_probe_order(make_trace(50, {}), "test"));
  EXPECT_NO_THROW(validate_probe_order(make_trace(50, {100.0}), "test"));
  EXPECT_NO_THROW(validate_probe_order(
      make_trace(50, {100.0, std::nullopt, 120.0}), "test"));
  // Gaps in seq (dropped records) are fine: only monotonicity matters.
  auto gappy = make_trace(50, {100.0, 101.0, 102.0});
  gappy.records[1].seq = 5;
  gappy.records[2].seq = 9;
  EXPECT_NO_THROW(validate_probe_order(gappy, "test"));
}

TEST(ValidateProbeOrderTest, RejectsOutOfOrderAndDuplicateSeq) {
  auto swapped = make_trace(50, {100.0, 101.0, 102.0});
  std::swap(swapped.records[0], swapped.records[1]);
  EXPECT_THROW(validate_probe_order(swapped, "test"), std::invalid_argument);

  auto duplicated = make_trace(50, {100.0, 101.0, 102.0});
  duplicated.records[2].seq = duplicated.records[1].seq;
  EXPECT_THROW(validate_probe_order(duplicated, "test"), std::invalid_argument);
}

TEST(ValidateProbeOrderTest, ErrorNamesCallerAndOffendingPair) {
  auto trace = make_trace(50, {100.0, 101.0, 102.0});
  trace.records[2].seq = 0;
  try {
    validate_probe_order(trace, "some_estimator");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("some_estimator"), std::string::npos) << message;
    EXPECT_NE(message.find("seq 1"), std::string::npos) << message;
    EXPECT_NE(message.find("seq 0"), std::string::npos) << message;
    EXPECT_NE(message.find("index 2"), std::string::npos) << message;
  }
}

// Regression: the pairwise batch estimators used to silently accept
// unsorted or duplicate-seq traces and compute garbage consecutive-pair
// statistics.  Each entry point now validates.
TEST(ValidateProbeOrderTest, PairwiseEstimatorsRejectUnsortedTraces) {
  auto trace = make_trace(50, {100.0, 105.0, 102.0, 110.0});
  std::swap(trace.records[1], trace.records[2]);
  EXPECT_THROW(loss_stats(trace), std::invalid_argument);
  EXPECT_THROW(workload_samples_ms(trace), std::invalid_argument);
  EXPECT_THROW(analyze_workload(trace, {}), std::invalid_argument);
  EXPECT_THROW(estimate_bottleneck(trace), std::invalid_argument);
  EXPECT_THROW(estimate_bottleneck_packet_pair(trace), std::invalid_argument);
  EXPECT_THROW(build_phase_plot(trace), std::invalid_argument);
  EXPECT_THROW(analyze_phase_plot(trace), std::invalid_argument);
  EXPECT_THROW(reorder_stats(trace), std::invalid_argument);
  EXPECT_THROW(loss_delay_correlation(trace), std::invalid_argument);
}

TEST(ValidateProbeOrderTest, SortedTracesStillAnalyze) {
  const auto trace =
      make_trace(50, {100.0, 105.0, std::nullopt, 102.0, 110.0, 103.0});
  EXPECT_NO_THROW(loss_stats(trace));
  EXPECT_NO_THROW(workload_samples_ms(trace));
  EXPECT_NO_THROW(build_phase_plot(trace));
  EXPECT_NO_THROW(reorder_stats(trace));
}

}  // namespace
}  // namespace bolot::analysis

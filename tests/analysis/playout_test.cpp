#include "analysis/playout.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/analysis/trace_fixtures.h"
#include "util/rng.h"

namespace bolot::analysis {
namespace {

using testing::make_trace;

ProbeTrace uniform_delay_trace(std::size_t n, double lo_ms, double hi_ms,
                               std::uint64_t seed, double loss_rate = 0.0) {
  Rng rng(seed);
  std::vector<std::optional<double>> rtts;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(loss_rate)) {
      rtts.push_back(std::nullopt);
    } else {
      rtts.push_back(rng.uniform(lo_ms, hi_ms));
    }
  }
  return make_trace(20, rtts);
}

TEST(FixedPlayoutTest, CountsLateAndLost) {
  const auto trace =
      make_trace(20, {100.0, 150.0, std::nullopt, 210.0, 120.0});
  const auto result = evaluate_fixed_playout(trace, 160.0);
  EXPECT_DOUBLE_EQ(result.network_loss, 0.2);
  EXPECT_DOUBLE_EQ(result.late_fraction, 0.2);  // only the 210-ms packet
  EXPECT_DOUBLE_EQ(result.total_gap_fraction, 0.4);
  EXPECT_DOUBLE_EQ(result.mean_playout_delay_ms, 160.0);
}

TEST(FixedPlayoutTest, ZeroDelayDropsEverything) {
  const auto trace = make_trace(20, {100.0, 120.0});
  const auto result = evaluate_fixed_playout(trace, 0.0);
  EXPECT_DOUBLE_EQ(result.total_gap_fraction, 1.0);
}

TEST(SizeFixedPlayoutTest, MeetsTargetExactly) {
  const auto trace = uniform_delay_trace(20000, 100.0, 200.0, 3);
  const double delay = size_fixed_playout(trace, 0.05);
  const auto result = evaluate_fixed_playout(trace, delay);
  EXPECT_LE(result.total_gap_fraction, 0.05);
  // And it is tight: 1 ms less must violate the target (uniform density).
  const auto tighter = evaluate_fixed_playout(trace, delay - 2.0);
  EXPECT_GT(tighter.total_gap_fraction, 0.045);
  EXPECT_NEAR(delay, 195.0, 2.0);  // 95th percentile of U(100, 200)
}

TEST(SizeFixedPlayoutTest, AccountsForNetworkLoss) {
  const auto trace = uniform_delay_trace(20000, 100.0, 200.0, 5, 0.04);
  // Target 0.06 with 4% network loss: only ~2% may be late.
  const double delay = size_fixed_playout(trace, 0.06);
  EXPECT_NEAR(delay, 198.0, 2.0);
  EXPECT_THROW(size_fixed_playout(trace, 0.03), std::invalid_argument);
}

TEST(SizeFixedPlayoutTest, Validation) {
  const auto trace = make_trace(20, {100.0});
  EXPECT_THROW(size_fixed_playout(trace, -0.1), std::invalid_argument);
  EXPECT_THROW(size_fixed_playout(trace, 1.0), std::invalid_argument);
  // A NaN target is no target, not a 100 ms playout delay.
  const auto ten =
      make_trace(20, std::vector<std::optional<double>>(10, 100.0));
  EXPECT_THROW(size_fixed_playout(ten, std::nan("")), std::invalid_argument);
  const auto lost = make_trace(20, {std::nullopt});
  EXPECT_THROW(size_fixed_playout(lost, 0.5), std::invalid_argument);
}

TEST(AdaptivePlayoutTest, TracksSlowDelayChanges) {
  // Delay level doubles mid-session; the adaptive policy follows while a
  // fixed policy sized on the first half would fail the second half.
  Rng rng(7);
  std::vector<std::optional<double>> rtts;
  for (int i = 0; i < 5000; ++i) rtts.push_back(100.0 + rng.uniform(0.0, 20.0));
  for (int i = 0; i < 5000; ++i) rtts.push_back(220.0 + rng.uniform(0.0, 20.0));
  const auto trace = make_trace(20, rtts);

  const auto adaptive = evaluate_adaptive_playout(trace);
  EXPECT_LT(adaptive.total_gap_fraction, 0.05);

  const auto fixed_on_first_half = evaluate_fixed_playout(trace, 125.0);
  EXPECT_GT(fixed_on_first_half.total_gap_fraction, 0.45);
}

TEST(AdaptivePlayoutTest, LowerMeanDelayThanConservativeFixed) {
  // Stationary delays: adaptive settles near d + beta*v, below a
  // worst-case fixed setting.
  const auto trace = uniform_delay_trace(20000, 100.0, 140.0, 9);
  const auto adaptive = evaluate_adaptive_playout(trace);
  EXPECT_LT(adaptive.mean_playout_delay_ms, 180.0);
  EXPECT_GT(adaptive.mean_playout_delay_ms, 120.0);
  EXPECT_LT(adaptive.total_gap_fraction, 0.1);
}

TEST(AdaptivePlayoutTest, Validation) {
  EXPECT_THROW(evaluate_adaptive_playout(make_trace(20, {})),
               std::invalid_argument);
  EXPECT_THROW(evaluate_fixed_playout(make_trace(20, {}), 10.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace bolot::analysis

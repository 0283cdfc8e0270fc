#include "analysis/changepoint.h"

#include <gtest/gtest.h>

#include "util/rng.h"
#include "tests/util/normal.h"

namespace bolot::analysis {
namespace {

std::vector<double> step_series(double before, double after,
                                std::size_t change_at, std::size_t total,
                                double noise, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  for (std::size_t i = 0; i < total; ++i) {
    xs.push_back((i < change_at ? before : after) + normal(rng, 0.0, noise));
  }
  return xs;
}

CusumOptions strict_options() {
  // Longer training and a higher threshold: the default (training = 100)
  // can alias training-mean error into a slow false drift on long runs.
  CusumOptions options;
  options.training_samples = 200;
  options.slack_sigmas = 1.0;
  options.threshold_sigmas = 10.0;
  return options;
}

TEST(CusumTest, DetectsUpwardShiftPromptly) {
  const auto xs = step_series(100.0, 120.0, 500, 1000, 2.0, 3);
  const auto result = cusum_detect(xs, strict_options());
  ASSERT_TRUE(result.alarm_index.has_value());
  EXPECT_TRUE(result.shifted_up);
  EXPECT_GE(*result.alarm_index, 500u);
  EXPECT_LE(*result.alarm_index, 510u);  // 10-sigma shift: near-immediate
}

TEST(CusumTest, DetectsDownwardShift) {
  const auto xs = step_series(100.0, 80.0, 400, 1000, 2.0, 5);
  const auto result = cusum_detect(xs, strict_options());
  ASSERT_TRUE(result.alarm_index.has_value());
  EXPECT_FALSE(result.shifted_up);
  EXPECT_GE(*result.alarm_index, 400u);
  EXPECT_LE(*result.alarm_index, 410u);
}

TEST(CusumTest, NoAlarmOnStationaryNoise) {
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(100.0 + normal(rng, 0.0, 3.0));
  const auto result = cusum_detect(xs, strict_options());
  EXPECT_FALSE(result.alarm_index.has_value());
}

TEST(CusumTest, SmallShiftAccumulatesToAlarm) {
  // 1-sigma shift: undetectable per sample, caught by accumulation.
  const auto xs = step_series(100.0, 103.0, 300, 2000, 3.0, 9);
  CusumOptions options = strict_options();
  options.slack_sigmas = 0.5;  // tuned for a small shift
  options.threshold_sigmas = 8.0;
  const auto result = cusum_detect(xs, options);
  ASSERT_TRUE(result.alarm_index.has_value());
  EXPECT_GE(*result.alarm_index, 300u);
  EXPECT_LE(*result.alarm_index, 420u);  // within ~120 samples
}

TEST(CusumTest, ConstantTrainingWindowUsesSigmaFloor) {
  std::vector<double> xs(200, 50.0);
  xs.resize(400, 51.0);  // tiny but real shift after a constant start
  const auto result = cusum_detect(xs);
  ASSERT_TRUE(result.alarm_index.has_value());
  EXPECT_EQ(*result.alarm_index, 200u);
}

TEST(CusumTest, ThrowsOnShortSeries) {
  const std::vector<double> xs(50, 1.0);
  EXPECT_THROW(cusum_detect(xs), std::invalid_argument);
}

TEST(SegmentationTest, FindsSingleShift) {
  const auto xs = step_series(100.0, 130.0, 400, 1000, 3.0, 11);
  const auto changes = segment_mean_shifts(xs);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_NEAR(static_cast<double>(changes[0]), 400.0, 5.0);
}

TEST(SegmentationTest, FindsMultipleShifts) {
  Rng rng(13);
  std::vector<double> xs;
  const double levels[] = {100.0, 140.0, 90.0, 120.0};
  for (int segment = 0; segment < 4; ++segment) {
    for (int i = 0; i < 300; ++i) {
      xs.push_back(levels[segment] + normal(rng, 0.0, 3.0));
    }
  }
  const auto changes = segment_mean_shifts(xs);
  ASSERT_EQ(changes.size(), 3u);
  EXPECT_NEAR(static_cast<double>(changes[0]), 300.0, 10.0);
  EXPECT_NEAR(static_cast<double>(changes[1]), 600.0, 10.0);
  EXPECT_NEAR(static_cast<double>(changes[2]), 900.0, 10.0);
}

TEST(SegmentationTest, NoFalseSplitsOnNoise) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 3000; ++i) xs.push_back(100.0 + normal(rng, 0.0, 5.0));
  EXPECT_TRUE(segment_mean_shifts(xs).empty());
}

TEST(SegmentationTest, RespectsMinSegment) {
  // A blip shorter than the 30-sample minimum segment must not produce
  // change points.
  auto xs = step_series(100.0, 100.0, 0, 500, 1.0, 19);
  for (std::size_t i = 240; i < 250; ++i) xs[i] = 200.0;
  EXPECT_TRUE(segment_mean_shifts(xs).empty());
}

TEST(SegmentationTest, ShortSeriesYieldsNothing) {
  const std::vector<double> xs(20, 1.0);
  EXPECT_TRUE(segment_mean_shifts(xs).empty());
  // 59 samples cannot hold two 30-sample segments, however clear the
  // step between them.
  const auto step = step_series(100.0, 200.0, 29, 59, 1.0, 23);
  EXPECT_TRUE(segment_mean_shifts(step).empty());
}

}  // namespace
}  // namespace bolot::analysis

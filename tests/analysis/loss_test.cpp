#include "analysis/loss.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/analysis/trace_fixtures.h"
#include "util/rng.h"

namespace bolot::analysis {
namespace {

using testing::make_loss_trace;

std::vector<std::uint8_t> pattern(const char* s) {
  std::vector<std::uint8_t> out;
  for (const char* p = s; *p != '\0'; ++p) out.push_back(*p == 'x' ? 1 : 0);
  return out;
}

TEST(LossStatsTest, NoLosses) {
  const auto s = loss_stats(pattern("........"));
  EXPECT_EQ(s.probes, 8u);
  EXPECT_EQ(s.losses, 0u);
  EXPECT_EQ(s.ulp, 0.0);
  EXPECT_EQ(s.clp, 0.0);
  EXPECT_EQ(s.mean_burst_length, 0.0);
}

TEST(LossStatsTest, AllLost) {
  const auto s = loss_stats(pattern("xxxx"));
  EXPECT_EQ(s.ulp, 1.0);
  EXPECT_EQ(s.clp, 1.0);
  EXPECT_TRUE(std::isinf(s.plg_from_clp));
  EXPECT_EQ(s.mean_burst_length, 4.0);
  ASSERT_EQ(s.burst_length_counts.size(), 4u);
  EXPECT_EQ(s.burst_length_counts[3], 1u);
}

TEST(LossStatsTest, CountsByDefinition) {
  // Pattern: . x x . x . (6 probes, 3 lost)
  const auto s = loss_stats(pattern(".xx.x."));
  EXPECT_EQ(s.probes, 6u);
  EXPECT_EQ(s.losses, 3u);
  EXPECT_DOUBLE_EQ(s.ulp, 0.5);
  // Conditional pairs with first lost: (1,2)=lost,lost; (2,3)=lost,ok;
  // (4,5)=lost,ok -> clp = 1/3.
  EXPECT_NEAR(s.clp, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.plg_from_clp, 1.5, 1e-12);
  // Bursts: "xx" (len 2) and "x" (len 1) -> mean 1.5.
  EXPECT_DOUBLE_EQ(s.mean_burst_length, 1.5);
  ASSERT_GE(s.burst_length_counts.size(), 2u);
  EXPECT_EQ(s.burst_length_counts[0], 1u);
  EXPECT_EQ(s.burst_length_counts[1], 1u);
}

TEST(LossStatsTest, TrailingBurstCounted) {
  const auto s = loss_stats(pattern("..xxx"));
  EXPECT_DOUBLE_EQ(s.mean_burst_length, 3.0);
  ASSERT_EQ(s.burst_length_counts.size(), 3u);
  EXPECT_EQ(s.burst_length_counts[2], 1u);
}

TEST(LossStatsTest, TraceOverloadMatchesIndicators) {
  const auto trace = make_loss_trace(".x.x..x");
  const auto from_trace = loss_stats(trace);
  const auto from_pattern = loss_stats(pattern(".x.x..x"));
  EXPECT_EQ(from_trace.losses, from_pattern.losses);
  EXPECT_EQ(from_trace.clp, from_pattern.clp);
}

TEST(LossStatsTest, ThrowsOnEmpty) {
  EXPECT_THROW(loss_stats(std::vector<std::uint8_t>{}),
               std::invalid_argument);
}

TEST(LossStatsTest, ReceivedProbeWithZeroRttIsNotALoss) {
  // Loss is decided by ProbeRecord::received, never by rtt == 0: a
  // received probe whose rtt rounds to 0 ns stays received.
  const auto trace = testing::make_trace(
      20, {100.0, 0.0, 100.0, std::nullopt, 100.0});
  ASSERT_TRUE(trace.records[1].received);
  const auto s = loss_stats(trace);
  EXPECT_EQ(s.probes, 5u);
  EXPECT_EQ(s.losses, 1u);
  EXPECT_EQ(s.ulp, 0x1.999999999999ap-3);
  EXPECT_EQ(s.clp, 0.0);
}

TEST(LossStatsTest, MillionSampleStreamsArePinned) {
  // loss_stats and fit_gilbert on three Gilbert chains, pinned bit for
  // bit (hex floats) so a change to the fold or its core cannot move them.
  const struct {
    std::uint64_t seed;
    double p, q;
    std::size_t losses;
    double ulp, clp, plg, mean_burst;
    std::size_t longest, bursts;
    double fit_p, fit_q;
  } pins[] = {
      {1, 0.02, 0.5, 38680, 0x1.3cddd6e04c059p-5, 0x1.ff0c04df038c2p-2,
       0x1.ff0c78eb12643p+0, 0x1.ff0c78eb12643p+0, 20, 19376,
       0x1.4a3ae20132a46p-6, 0x1.0079fd907e39fp-1},
      {2, 0.2, 0.2, 498341, 0x1.fe4d1a6506141p-2, 0x1.994b460c9c01p-1,
       0x1.3f0bf59277689p+2, 0x1.3f0bf59277688p+2, 53, 99966,
       0x1.981a7667dc21bp-3, 0x1.9ad2e7cd8ffc1p-3},
      {3, 0.001, 0.9, 1161, 0x1.3059641f64495p-10, 0x1.c71c71c71c71cp-4,
       0x1.2p+0, 0x1.2p+0, 4, 1032, 0x1.0ed8eaca0fe76p-10,
       0x1.c71c71c71c71cp-1},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(pin.seed);
    const auto losses = testing::random_gilbert_losses(
        pin.seed, pin.p, pin.q, testing::kMillionSamples);
    const LossStats s = loss_stats(losses);
    EXPECT_EQ(s.probes, testing::kMillionSamples);
    EXPECT_EQ(s.losses, pin.losses);
    EXPECT_EQ(s.ulp, pin.ulp);
    EXPECT_EQ(s.clp, pin.clp);
    EXPECT_EQ(s.plg_from_clp, pin.plg);
    EXPECT_EQ(s.mean_burst_length, pin.mean_burst);
    EXPECT_EQ(s.burst_length_counts.size(), pin.longest);
    std::size_t bursts = 0;
    for (const std::size_t count : s.burst_length_counts) bursts += count;
    EXPECT_EQ(bursts, pin.bursts);

    const GilbertFit fit = fit_gilbert(losses);
    EXPECT_EQ(fit.p, pin.fit_p);
    EXPECT_EQ(fit.q, pin.fit_q);
    EXPECT_FALSE(fit.degenerate);
  }
}

TEST(LossStatsTest, PlgFormulaMatchesMeanBurstForGeometricLosses) {
  // For a stationary Gilbert process, plg = 1/(1-clp) equals the mean
  // burst length (the paper's Palm-probability identity).
  Rng rng(31);
  std::vector<std::uint8_t> losses;
  bool lost = false;
  for (int i = 0; i < 400000; ++i) {
    lost = lost ? rng.chance(0.6) : rng.chance(0.05);
    losses.push_back(lost ? 1 : 0);
  }
  const auto s = loss_stats(losses);
  EXPECT_NEAR(s.plg_from_clp, s.mean_burst_length,
              0.05 * s.mean_burst_length);
  EXPECT_NEAR(s.clp, 0.6, 0.01);
}

TEST(GilbertFitTest, RecoversTransitionProbabilities) {
  Rng rng(37);
  std::vector<std::uint8_t> losses;
  bool lost = false;
  for (int i = 0; i < 400000; ++i) {
    lost = lost ? !rng.chance(0.3) : rng.chance(0.02);
    losses.push_back(lost ? 1 : 0);
  }
  const GilbertFit fit = fit_gilbert(losses);
  EXPECT_NEAR(fit.p, 0.02, 0.003);
  EXPECT_NEAR(fit.q, 0.3, 0.01);
  EXPECT_NEAR(fit.stationary_loss(), 0.02 / 0.32, 0.01);
  EXPECT_NEAR(1.0 - fit.q, 0.7, 0.01);
}

TEST(GilbertFitTest, ConsistentWithLossStats) {
  const auto losses = pattern(".xx..x.xx.");
  const GilbertFit fit = fit_gilbert(losses);
  const auto s = loss_stats(losses);
  EXPECT_NEAR(1.0 - fit.q, s.clp, 1e-12);
}

TEST(GilbertFitTest, Validation) {
  EXPECT_THROW(fit_gilbert(pattern("x")), std::invalid_argument);
}

TEST(GilbertFitTest, AllLostIsDegenerateWithFullStationaryLoss) {
  // Every conditioning pair starts lost, so q is measured as 0 and p is
  // unidentifiable.  The fit pins p = 1 (stationary loss 1.0, matching
  // the observation — not the old 0/0 = 0) and flags itself degenerate.
  const GilbertFit fit = fit_gilbert(pattern("xxxx"));
  EXPECT_TRUE(fit.degenerate);
  EXPECT_EQ(fit.p, 1.0);
  EXPECT_EQ(fit.q, 0.0);
  EXPECT_EQ(fit.stationary_loss(), 1.0);
  EXPECT_EQ(1.0 - fit.q, 1.0);
}

TEST(GilbertFitTest, NoLossesIsDegenerateWithZeroStationaryLoss) {
  const GilbertFit fit = fit_gilbert(pattern("....."));
  EXPECT_TRUE(fit.degenerate);
  EXPECT_EQ(fit.p, 0.0);
  EXPECT_EQ(fit.q, 1.0);
  EXPECT_EQ(fit.stationary_loss(), 0.0);
}

TEST(GilbertFitTest, NonDegenerateSequencesAreNotFlagged) {
  EXPECT_FALSE(fit_gilbert(pattern(".xx.x.")).degenerate);
}

TEST(LossGapTest, EstimatorsAgreeOnStationaryTraces) {
  Rng rng(53);
  std::vector<std::uint8_t> losses;
  bool lost = false;
  for (int i = 0; i < 400000; ++i) {
    lost = lost ? rng.chance(0.5) : rng.chance(0.04);
    losses.push_back(lost ? 1 : 0);
  }
  const LossGapEstimate gap = loss_stats(losses).loss_gap();
  EXPECT_TRUE(gap.consistent);
  EXPECT_NEAR(gap.from_clp, gap.from_bursts, 0.1 * gap.from_bursts);
  EXPECT_NEAR(gap.from_bursts, 2.0, 0.1);  // mean run of a q = 0.5 chain
}

TEST(LossGapTest, ClpSaturationFlagsInconsistent) {
  // "..xx": the only conditioning pair is lost->lost, so clp = 1 and
  // 1/(1-clp) diverges, while the burst estimator stays finite at 2.
  const auto s = loss_stats(pattern("..xx"));
  const LossGapEstimate gap = s.loss_gap();
  EXPECT_TRUE(std::isinf(gap.from_clp));
  EXPECT_DOUBLE_EQ(gap.from_bursts, 2.0);
  EXPECT_FALSE(gap.consistent);
}

TEST(LossGapTest, NoLossesIsInconsistent) {
  EXPECT_FALSE(loss_stats(pattern("....")).loss_gap().consistent);
}

TEST(GilbertFitTest, FitGenerateFitRecoversParametersAtMillionScale) {
  // Property pinning the whole loop the channel models rely on: fit a
  // measured sequence, generate 10^6 indicators from the fit, and the
  // re-fit recovers p, q, and the stationary loss to within tight
  // sampling error.
  Rng source(59);
  std::vector<std::uint8_t> measured;
  bool lost = false;
  for (int i = 0; i < 200000; ++i) {
    lost = lost ? !source.chance(0.25) : source.chance(0.015);
    measured.push_back(lost ? 1 : 0);
  }
  const GilbertFit fit = fit_gilbert(measured);
  ASSERT_FALSE(fit.degenerate);

  Rng rng(61);
  const auto regenerated = generate_gilbert(fit, 1000000, rng);
  const GilbertFit refit = fit_gilbert(regenerated);
  EXPECT_NEAR(refit.p, fit.p, 0.1 * fit.p);
  EXPECT_NEAR(refit.q, fit.q, 0.05 * fit.q);
  const auto stats = loss_stats(regenerated);
  EXPECT_NEAR(stats.ulp, fit.stationary_loss(),
              0.05 * fit.stationary_loss());
  EXPECT_NEAR(stats.clp, 1.0 - fit.q, 0.01);
  EXPECT_NEAR(stats.mean_burst_length, 1.0 / fit.q, 0.05 / fit.q);
}

TEST(RunsTestTest, RandomSequenceNearZero) {
  Rng rng(41);
  std::vector<std::uint8_t> losses;
  for (int i = 0; i < 100000; ++i) losses.push_back(rng.chance(0.1) ? 1 : 0);
  EXPECT_LT(std::abs(loss_runs_test_z(losses)), 3.0);
}

TEST(RunsTestTest, ClusteredSequenceStronglyNegative) {
  // Long alternating blocks: far fewer runs than random.
  std::vector<std::uint8_t> losses;
  for (int block = 0; block < 100; ++block) {
    for (int i = 0; i < 50; ++i) losses.push_back(block % 2);
  }
  EXPECT_LT(loss_runs_test_z(losses), -10.0);
}

TEST(RunsTestTest, AlternatingSequenceStronglyPositive) {
  std::vector<std::uint8_t> losses;
  for (int i = 0; i < 1000; ++i) losses.push_back(i % 2);
  EXPECT_GT(loss_runs_test_z(losses), 10.0);
}

TEST(RunsTestTest, RequiresBothSymbols) {
  EXPECT_THROW(loss_runs_test_z(pattern("....")), std::invalid_argument);
  EXPECT_THROW(loss_runs_test_z(pattern("xxxx")), std::invalid_argument);
}

TEST(FecTest, SingleLossesFullyRecoverable) {
  const auto losses = pattern(".x..x...x.");
  EXPECT_DOUBLE_EQ(fec_recoverable_fraction(losses, 1), 1.0);
}

TEST(FecTest, BurstsNeedDeeperRedundancy) {
  // One burst of 3 and one single loss.
  const auto losses = pattern(".xxx....x.");
  EXPECT_DOUBLE_EQ(fec_recoverable_fraction(losses, 1), 0.25);
  EXPECT_DOUBLE_EQ(fec_recoverable_fraction(losses, 2), 0.25);
  EXPECT_DOUBLE_EQ(fec_recoverable_fraction(losses, 3), 1.0);
}

TEST(FecTest, NoLossesIsTriviallyRecoverable) {
  EXPECT_DOUBLE_EQ(fec_recoverable_fraction(pattern("...."), 1), 1.0);
}

TEST(FecTest, ZeroRedundancyRecoversNothing) {
  EXPECT_DOUBLE_EQ(fec_recoverable_fraction(pattern(".x.."), 0), 0.0);
}

TEST(DesignFecTest, ZeroTargetMetByPerfectRepairWhenBurstsAreShort) {
  const auto losses = pattern(".x..x...x.");  // isolated losses, ulp = 0.3
  const FecPlan plan = design_fec(losses, 0.0);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.k, 1u);
  EXPECT_EQ(plan.residual_loss, 0.0);
}

TEST(DesignFecTest, DeepBurstsNeedDeeperRepair) {
  const auto losses = pattern(".xxx....x.");
  // ulp = 0.4; k=1 repairs only the single loss -> residual 0.3.
  const FecPlan tight = design_fec(losses, 0.05);
  EXPECT_TRUE(tight.feasible);
  EXPECT_EQ(tight.k, 3u);
  const FecPlan loose = design_fec(losses, 0.35);
  EXPECT_EQ(loose.k, 1u);
}

TEST(DesignFecTest, NoRepairNeededWhenTargetAlreadyMet) {
  const auto losses = pattern(".........x");  // ulp = 0.1
  const FecPlan plan = design_fec(losses, 0.2);
  EXPECT_EQ(plan.k, 0u);
  EXPECT_TRUE(plan.feasible);
}

TEST(DesignFecTest, InfeasibleReported) {
  const auto losses = pattern("xxxxxxxxxx");  // everything lost
  const FecPlan plan = design_fec(losses, 0.01, 4);
  EXPECT_FALSE(plan.feasible);
  EXPECT_EQ(plan.k, 4u);
  EXPECT_THROW(design_fec(losses, -0.1), std::invalid_argument);
}

TEST(GenerateGilbertTest, RoundTripsThroughFit) {
  GilbertFit truth;
  truth.p = 0.03;
  truth.q = 0.4;
  Rng rng(47);
  const auto losses = generate_gilbert(truth, 400000, rng);
  const GilbertFit fitted = fit_gilbert(losses);
  EXPECT_NEAR(fitted.p, truth.p, 0.004);
  EXPECT_NEAR(fitted.q, truth.q, 0.01);
  const auto stats = loss_stats(losses);
  EXPECT_NEAR(stats.ulp, truth.stationary_loss(), 0.005);
  EXPECT_NEAR(stats.clp, 1.0 - truth.q, 0.01);
}

TEST(GenerateGilbertTest, DegenerateModels) {
  Rng rng(49);
  GilbertFit never;
  never.p = 0.0;
  never.q = 1.0;
  for (const auto v : generate_gilbert(never, 1000, rng)) EXPECT_EQ(v, 0);
  GilbertFit malformed;
  malformed.p = 1.5;
  EXPECT_THROW(generate_gilbert(malformed, 10, rng), std::invalid_argument);
}

// Property: for memoryless loss at rate p, clp ~ ulp ~ p and plg ~ 1/(1-p).
class RandomLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(RandomLossSweep, MemorylessLossHasClpEqualUlp) {
  const double p = GetParam();
  Rng rng(43);
  std::vector<std::uint8_t> losses;
  for (int i = 0; i < 300000; ++i) losses.push_back(rng.chance(p) ? 1 : 0);
  const auto s = loss_stats(losses);
  EXPECT_NEAR(s.ulp, p, 0.01);
  EXPECT_NEAR(s.clp, p, 0.02);
  EXPECT_NEAR(s.plg_from_clp, 1.0 / (1.0 - p), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Rates, RandomLossSweep,
                         ::testing::Values(0.03, 0.1, 0.23, 0.4));

}  // namespace
}  // namespace bolot::analysis

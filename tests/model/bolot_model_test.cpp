#include "model/bolot_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/lindley.h"
#include "analysis/loss.h"
#include "analysis/phase_plot.h"
#include "analysis/stats.h"

namespace bolot::model {
namespace {

/// The paper's inferred cross-traffic mix as a batch distribution: with
/// probability `bulk` a burst of 512-byte FTP packets (geometric length,
/// mean `mean_bulk_packets`), else with probability `interactive` one
/// 64-byte Telnet packet, else nothing.
BatchBitsDistribution ftp_telnet_mix(double bulk, double mean_bulk_packets,
                                     double interactive) {
  return [=](Rng& rng) {
    const double u = rng.uniform();
    if (u < bulk) {
      return static_cast<double>(rng.geometric(1.0 / mean_bulk_packets)) *
             512.0 * 8.0;
    }
    return u < bulk + interactive ? 64.0 * 8.0 : 0.0;
  };
}

/// Waiting times w_n = rtt_n - D - P/mu of the received probes, in ms.
std::vector<double> waits_ms(const ModelRun& run, const ModelConfig& config) {
  const Duration fixed =
      config.fixed_rtt + config.mu.transmission_time(config.probe);
  std::vector<double> waits;
  for (const auto& record : run.trace.records) {
    if (record.received) waits.push_back((record.rtt - fixed).millis());
  }
  return waits;
}

ModelConfig base_config() {
  ModelConfig config;
  config.mu = Bandwidth::bps(128e3);
  config.probe = BitSize::bits(72 * 8);
  config.delta = Duration::millis(20);
  config.fixed_rtt = Duration::millis(140);
  config.buffer_packets = 16;
  config.probe_count = 20000;
  config.batch_phase = 0.5;
  return config;
}

TEST(RunModelTest, NoCrossTrafficGivesConstantMinimalRtt) {
  ModelConfig config = base_config();
  config.batch_bits = [](Rng&) { return 0.0; };
  const ModelRun run = run_model(config);
  EXPECT_EQ(run.trace.lost_count(), 0u);
  EXPECT_EQ(run.trace.received_count(), config.probe_count);
  // Every probe: rtt = D + P/mu (no queueing).
  const Duration expected = Duration::millis(140.0 + 4.5);
  for (const auto& record : run.trace.records) {
    EXPECT_EQ(record.rtt, expected);
  }
}

TEST(RunModelTest, LindleyRecursionMatchesHandComputation) {
  // One deterministic batch of exactly one 512-B packet (32 ms of
  // service) per interval, arriving mid-interval, delta = 20 ms.
  // rho = (4.5 + 32) / 20 > 1: the queue grows until the buffer caps it.
  ModelConfig config = base_config();
  config.batch_bits = [](Rng&) { return 512.0 * 8.0; };
  config.probe_count = 200;
  const ModelRun run = run_model(config);

  // Hand evaluation: probe 0 waits 0 and finishes at 4.5 ms; the queue
  // then idles until the batch lands at t = 10 ms, so probe 1 finds
  // 32 - 10 = 22 ms of backlog.  From then on the server never idles and
  // waits grow by (P + b)/mu - delta = 16.5 ms per interval.
  // Integer time makes the hand values exact.
  const auto& records = run.trace.records;
  const Duration fixed = Duration::millis(140.0 + 4.5);
  ASSERT_TRUE(records[0].received && records[1].received &&
              records[2].received && records[3].received);
  EXPECT_EQ(records[0].rtt, fixed);
  EXPECT_EQ(records[1].rtt, fixed + Duration::millis(22));
  EXPECT_EQ(records[2].rtt, fixed + Duration::millis(38.5));
  EXPECT_EQ(records[3].rtt, fixed + Duration::millis(55));
  EXPECT_GT(run.trace.lost_count(), 0u);
}

TEST(RunModelTest, OverloadedQueueDropsProbesAndCross) {
  ModelConfig config = base_config();
  // Two FTP packets per interval: heavily overloaded.
  config.batch_bits = [](Rng&) { return 2.0 * 512.0 * 8.0; };
  const ModelRun run = run_model(config);
  EXPECT_GT(run.trace.lost_count(), config.probe_count / 2);
  EXPECT_GT(run.batch_bits_dropped, 0u);
}

TEST(RunModelTest, CompressionEmergesFromTheRecursion) {
  // The paper's section-6 claim: the model "brings out the probe
  // compression phenomenon".  Occasional multi-packet batches create
  // busy periods in which consecutive probes drain back to back.
  ModelConfig config = base_config();
  config.batch_bits = ftp_telnet_mix(0.10, 6.0, 0.30);
  config.seed = 7;
  const ModelRun run = run_model(config);
  const auto phase = analysis::analyze_phase_plot(run.trace);
  ASSERT_TRUE(phase.compression_intercept_ms.has_value());
  // Intercept = delta - P/mu = 15.5 ms.
  EXPECT_NEAR(*phase.compression_intercept_ms, 15.5, 1.0);
  EXPECT_GT(phase.compression_fraction, 0.02);
}

TEST(RunModelTest, BottleneckEstimatorRecoversMuFromModelTrace) {
  ModelConfig config = base_config();
  config.batch_bits = ftp_telnet_mix(0.10, 6.0, 0.30);
  const ModelRun run = run_model(config);
  const auto estimate = analysis::estimate_bottleneck(run.trace);
  EXPECT_NEAR(estimate.mu_bps, 128e3, 15e3);
}

TEST(RunModelTest, LightLoadLossesAreRare) {
  ModelConfig config = base_config();
  config.batch_bits = ftp_telnet_mix(0.02, 2.0, 0.10);
  const ModelRun run = run_model(config);
  const auto loss = analysis::loss_stats(run.trace);
  EXPECT_LT(loss.ulp, 0.01);
}

TEST(RunModelTest, DeterministicForFixedSeed) {
  ModelConfig config = base_config();
  config.batch_bits = ftp_telnet_mix(0.1, 4.0, 0.2);
  config.seed = 99;
  const ModelRun a = run_model(config);
  const ModelRun b = run_model(config);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace.records[i].rtt, b.trace.records[i].rtt);
    EXPECT_EQ(a.trace.records[i].received, b.trace.records[i].received);
  }
}

TEST(RunModelTest, RandomPhaseStillConserved) {
  ModelConfig config = base_config();
  config.batch_phase = -1.0;  // uniform random
  config.batch_bits = ftp_telnet_mix(0.1, 4.0, 0.2);
  const ModelRun run = run_model(config);
  EXPECT_EQ(run.trace.size(), config.probe_count);
}

TEST(RunModelTest, Validation) {
  ModelConfig config = base_config();
  EXPECT_THROW(run_model(config), std::invalid_argument);  // no batch dist
  config.batch_bits = [](Rng&) { return 0.0; };
  config.mu = Bandwidth::zero();
  EXPECT_THROW(run_model(config), std::invalid_argument);
  config = base_config();
  config.batch_bits = [](Rng&) { return 0.0; };
  config.batch_phase = 1.5;
  EXPECT_THROW(run_model(config), std::invalid_argument);
  config = base_config();
  config.batch_bits = [](Rng&) { return 0.0; };
  config.buffer_packets = 0;
  EXPECT_THROW(run_model(config), std::invalid_argument);
  config = base_config();
  config.batch_bits = [](Rng&) { return 0.0; };
  config.delta = Duration::zero();
  EXPECT_THROW(run_model(config), std::invalid_argument);
  config = base_config();
  config.batch_bits = [](Rng&) { return 0.0; };
  config.probe = BitSize::zero();
  EXPECT_THROW(run_model(config), std::invalid_argument);
}

TEST(EmpiricalBatchesTest, ResamplesFromSample) {
  auto dist = empirical_batches({100.0, 200.0, 300.0});
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double bits = dist(rng);
    EXPECT_TRUE(bits == 100.0 || bits == 200.0 || bits == 300.0);
  }
  EXPECT_THROW(empirical_batches({}), std::invalid_argument);
}

// Property: mean wait grows with load (sweep over batch sizes).
class LoadSweep : public ::testing::TestWithParam<double> {};

TEST_P(LoadSweep, MeanWaitMonotoneInLoad) {
  // Compare load rho and rho + 0.2 via mean wait.
  const auto run_at = [](double load) {
    ModelConfig config = base_config();
    config.buffer_packets = 1000;  // effectively infinite
    const double batch_bits =
        load * config.mu.bps() * config.delta.seconds() - 576.0;
    config.batch_bits = [batch_bits](Rng& rng) {
      return rng.exponential(batch_bits);
    };
    const ModelRun run = run_model(config);
    return analysis::summarize(waits_ms(run, config)).mean;
  };
  EXPECT_LT(run_at(GetParam()), run_at(GetParam() + 0.2));
}

INSTANTIATE_TEST_SUITE_P(Loads, LoadSweep, ::testing::Values(0.3, 0.5, 0.7));

}  // namespace
}  // namespace bolot::model

#include "runner/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/sweep_io.h"
#include "runner/thread_pool.h"
#include "scenario/scenarios.h"
#include "util/rng.h"

namespace bolot::runner {
namespace {

std::vector<RunSpec> numbered_specs(std::size_t n) {
  std::vector<RunSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    specs.push_back({"run" + std::to_string(i),
                     {{"x", static_cast<double>(i)}}});
  }
  return specs;
}

/// A cheap job whose output depends only on (seed, params): sums a short
/// Rng stream, so any cross-thread interference or seed drift shows up.
std::vector<Metric> hash_job(const RunContext& ctx) {
  Rng rng(ctx.seed);
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) sum += rng.uniform();
  return {{"sum", sum + ctx.param("x")},
          {"first", static_cast<double>(Rng(ctx.seed).next_u64() >> 32)}};
}

TEST(ThreadPoolTest, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.wait_idle();  // no jobs yet: must not deadlock
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(SweepRunnerTest, ResultsInSpecOrderWithDerivedSeeds) {
  const auto specs = numbered_specs(17);
  SweepOptions options;
  options.name = "order";
  options.threads = 4;
  options.base_seed = 42;
  const SweepResult sweep = run_sweep(specs, hash_job, options);
  ASSERT_EQ(sweep.runs.size(), 17u);
  EXPECT_EQ(sweep.threads, 4u);
  for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
    EXPECT_EQ(sweep.runs[i].index, i);
    EXPECT_EQ(sweep.runs[i].label, "run" + std::to_string(i));
    EXPECT_EQ(sweep.runs[i].seed, derive_stream_seed(42, i));
    EXPECT_FALSE(sweep.runs[i].failed);
  }
}

TEST(SweepRunnerTest, DeterministicAcrossThreadCounts) {
  // The tentpole contract: same base seed => byte-identical SweepResult
  // serialization for any thread count.  Wall-clock and pool size are the
  // only schedule-dependent fields; deterministic() excludes them.
  const auto specs = numbered_specs(23);
  std::vector<std::string> serializations;
  for (std::size_t threads : {1u, 2u, 8u}) {
    SweepOptions options;
    options.name = "det";
    options.threads = threads;
    options.base_seed = 1993;
    const SweepResult sweep = run_sweep(specs, hash_job, options);
    serializations.push_back(
        sweep_to_json(sweep, SweepIoOptions::deterministic()));
    serializations.push_back(
        sweep_to_csv(sweep, SweepIoOptions::deterministic()));
  }
  for (std::size_t i = 2; i < serializations.size(); i += 2) {
    EXPECT_EQ(serializations[0], serializations[i]) << "thread count " << i;
    EXPECT_EQ(serializations[1], serializations[i + 1]);
  }
}

TEST(SweepRunnerTest, SimulationSweepDeterministicAcrossThreadCounts) {
  // Same contract, but through the real simulator: short scenario runs on
  // per-run derived seed streams.
  std::vector<RunSpec> specs;
  for (double delta_ms : {20.0, 50.0}) {
    specs.push_back({"delta=" + std::to_string(delta_ms),
                     {{"delta_ms", delta_ms}}});
  }
  const SweepJob job = [](const RunContext& ctx) {
    scenario::ProbePlan plan;
    plan.delta = Duration::millis(ctx.param("delta_ms"));
    plan.duration = Duration::seconds(20);
    plan.seed = ctx.seed;
    return scenario_metrics(scenario::run_inria_umd(plan));
  };
  std::string reference;
  for (std::size_t threads : {1u, 2u}) {
    SweepOptions options;
    options.name = "sim_det";
    options.threads = threads;
    options.base_seed = 7;
    const std::string json = sweep_to_json(run_sweep(specs, job, options),
                                           SweepIoOptions::deterministic());
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(reference, json);
    }
  }
}

TEST(SweepRunnerTest, ThreadsBoundsConcurrentlyRunningJobs) {
  // A timing sweep at threads = 1 must run one job at a time: no job may
  // run on the waiting thread beside the pool's workers.  threads = 0
  // sizes the pool to the hardware.
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (const std::size_t threads : {0u, 1u, 2u}) {
    const std::size_t expected = threads == 0 ? hardware : threads;
    std::atomic<std::size_t> running{0};
    std::atomic<std::size_t> high_water{0};
    const SweepJob job = [&](const RunContext&) -> std::vector<Metric> {
      const std::size_t now = ++running;
      std::size_t seen = high_water.load();
      while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --running;
      return {};
    };
    SweepOptions options;
    options.threads = threads;
    const SweepResult sweep =
        run_sweep(numbered_specs(4 * expected), job, options);
    EXPECT_EQ(sweep.threads, expected) << threads << " threads";
    EXPECT_EQ(high_water.load(), expected) << threads << " threads";
  }
}

TEST(SweepRunnerTest, PerRunSeedStreamsPairwiseDistinct) {
  const auto specs = numbered_specs(64);
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 1993;
  const SweepResult sweep = run_sweep(specs, hash_job, options);
  std::set<std::uint64_t> seeds;
  for (const RunResult& run : sweep.runs) seeds.insert(run.seed);
  EXPECT_EQ(seeds.size(), sweep.runs.size());
}

TEST(SweepRunnerTest, JobExceptionMarksRunFailed) {
  const auto specs = numbered_specs(5);
  const SweepJob job = [](const RunContext& ctx) -> std::vector<Metric> {
    if (ctx.index == 2) throw std::runtime_error("boom");
    return {{"ok", 1.0}};
  };
  SweepOptions options;
  options.threads = 3;
  const SweepResult sweep = run_sweep(specs, job, options);
  for (const RunResult& run : sweep.runs) {
    if (run.index == 2) {
      EXPECT_TRUE(run.failed);
      EXPECT_EQ(run.error, "boom");
      EXPECT_TRUE(run.metrics.empty());
    } else {
      EXPECT_FALSE(run.failed);
      ASSERT_NE(run.metric("ok"), nullptr);
      EXPECT_EQ(*run.metric("ok"), 1.0);
    }
  }
}

TEST(SweepRunnerTest, RejectsNullJob) {
  EXPECT_THROW(run_sweep({}, SweepJob{}), std::invalid_argument);
}

TEST(SweepRunnerTest, ParamLookup) {
  RunSpec spec{"s", {{"a", 1.5}}};
  EXPECT_EQ(spec.param("a"), 1.5);
  EXPECT_THROW(spec.param("missing"), std::out_of_range);
  EXPECT_EQ(find_metric(spec.params, "missing"), nullptr);
}

}  // namespace
}  // namespace bolot::runner

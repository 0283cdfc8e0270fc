#include "runner/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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

/// Specs whose run i carries x = i and its own seed, 1993 + i.
std::vector<RunSpec> numbered_specs(std::size_t n) {
  std::vector<RunSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    specs.push_back({"run" + std::to_string(i),
                     {{"x", static_cast<double>(i)},
                      {"seed", static_cast<double>(1993 + i)}}});
  }
  return specs;
}

/// A cheap job whose output depends only on its spec: sums a short Rng
/// stream seeded from the spec, so any cross-thread interference shows up.
std::vector<Metric> hash_job(const RunSpec& spec) {
  const auto seed = static_cast<std::uint64_t>(spec.param("seed"));
  Rng rng(seed);
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) sum += rng.uniform();
  return {{"sum", sum + spec.param("x")},
          {"first", static_cast<double>(Rng(seed).next_u64() >> 32)}};
}

TEST(ThreadPoolTest, RunsEverySubmittedJob) {
  ThreadPool pool(4);
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
  // Run i's result lands in slot i and was computed from the seed its own
  // spec carries.
  const auto specs = numbered_specs(17);
  SweepOptions options;
  options.name = "order";
  options.threads = 4;
  options.base_seed = 42;
  const SweepResult sweep = run_sweep(specs, hash_job, options);
  EXPECT_EQ(sweep.name, "order");
  EXPECT_EQ(sweep.base_seed, 42u);
  ASSERT_EQ(sweep.runs.size(), 17u);
  for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
    EXPECT_EQ(sweep.runs[i].index, i);
    EXPECT_EQ(sweep.runs[i].label, "run" + std::to_string(i));
    EXPECT_EQ(sweep.runs[i].param("x"), static_cast<double>(i));
    ASSERT_FALSE(sweep.runs[i].failed);
    EXPECT_EQ(*sweep.runs[i].metric("first"),
              static_cast<double>(Rng(1993 + i).next_u64() >> 32));
  }
}

TEST(SweepRunnerTest, DeterministicAcrossThreadCounts) {
  // The runner's contract: the same specs, job and base seed serialize
  // byte-identically for any thread count.
  const auto specs = numbered_specs(23);
  std::vector<std::string> serializations;
  for (std::size_t threads : {1u, 2u, 8u}) {
    SweepOptions options;
    options.name = "det";
    options.threads = threads;
    options.base_seed = 1993;
    serializations.push_back(
        sweep_to_json(run_sweep(specs, hash_job, options)));
  }
  for (std::size_t i = 1; i < serializations.size(); ++i) {
    EXPECT_EQ(serializations[0], serializations[i]) << "run " << i;
  }
}

TEST(SweepRunnerTest, SimulationSweepDeterministicAcrossThreadCounts) {
  // Same contract, but through the real simulator: short scenario runs,
  // each seeded from its own spec.
  std::vector<RunSpec> specs;
  for (double delta_ms : {20.0, 50.0}) {
    specs.push_back({"delta=" + std::to_string(delta_ms),
                     {{"delta_ms", delta_ms}, {"seed", 7 + delta_ms}}});
  }
  const SweepJob job = [](const RunSpec& spec) {
    scenario::ProbePlan plan;
    plan.delta = Duration::millis(spec.param("delta_ms"));
    plan.duration = Duration::seconds(20);
    plan.seed = static_cast<std::uint64_t>(spec.param("seed"));
    return scenario_metrics(scenario::run_inria_umd(plan));
  };
  std::string reference;
  for (std::size_t threads : {1u, 2u}) {
    SweepOptions options;
    options.name = "sim_det";
    options.threads = threads;
    options.base_seed = 7;
    const std::string json = sweep_to_json(run_sweep(specs, job, options));
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
    const SweepJob job = [&](const RunSpec&) -> std::vector<Metric> {
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
    run_sweep(numbered_specs(4 * expected), job, options);
    EXPECT_EQ(high_water.load(), expected) << threads << " threads";
  }
}

TEST(SweepRunnerTest, JobExceptionMarksRunFailed) {
  const auto specs = numbered_specs(5);
  const SweepJob job = [](const RunSpec& spec) -> std::vector<Metric> {
    if (spec.param("x") == 2) throw std::runtime_error("boom");
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

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/sweep.h"
#include "runner/sweep_io.h"
#include "scenario/scenarios.h"
#include "tests/obs/find_metric.h"

namespace bolot::obs {
namespace {

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.probe_counter("x", [] { return 0.0; });
  EXPECT_THROW(registry.probe_gauge("x", [] { return 0.0; }),
               std::invalid_argument);
  // Names may not be reused at all, even with a matching kind: two
  // closures for one name would be ambiguous.
  EXPECT_THROW(registry.probe_counter("x", [] { return 0.0; }),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, ProbesEvaluateAtSnapshotTime) {
  MetricsRegistry registry;
  double level = 1.0;
  registry.probe_gauge("level", [&level] { return level; });
  level = 42.0;  // changed after registration, before snapshot
  MetricsSnapshot snap = registry.snapshot(Duration::seconds(3));
  ASSERT_NE(find_metric(snap, "level"), nullptr);
  EXPECT_EQ(*find_metric(snap, "level"), 42.0);
  EXPECT_EQ(snap.at, Duration::seconds(3));
  EXPECT_EQ(find_metric(snap, "missing"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotIsInRegistrationOrder) {
  MetricsRegistry registry;
  double drops = 0.0;
  registry.probe_counter("zeta", [&drops] { return drops; });
  registry.probe_gauge("alpha", [] { return 2.0; });
  registry.probe_counter("mid", [] { return 1.0; });
  drops = 9.0;
  EXPECT_EQ(registry.size(), 3u);
  MetricsSnapshot snap = registry.snapshot(SimTime());
  ASSERT_EQ(snap.entries.size(), 3u);
  // Lexicographic order would be alpha/mid/zeta; registration order wins.
  EXPECT_EQ(snap.entries[0].name, "zeta");
  EXPECT_EQ(snap.entries[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snap.entries[0].value, 9.0);
  EXPECT_EQ(snap.entries[1].name, "alpha");
  EXPECT_EQ(snap.entries[1].kind, MetricKind::kGauge);
  EXPECT_EQ(snap.entries[1].value, 2.0);
  EXPECT_EQ(snap.entries[2].name, "mid");
  EXPECT_EQ(snap.entries[2].kind, MetricKind::kCounter);
  EXPECT_EQ(snap.entries[2].value, 1.0);
}

// The determinism contract from the runner inherits to obs: snapshots
// taken inside scenario jobs must not depend on the pool's thread count.
TEST(MetricsRegistryTest, SnapshotsAreIdenticalAcrossSweepThreadCounts) {
  scenario::ProbePlan plan;
  plan.delta = Duration::millis(50);
  plan.duration = Duration::seconds(20);

  const auto job = [&plan](const runner::RunSpec& spec) {
    scenario::ProbePlan p = plan;
    p.seed = static_cast<std::uint64_t>(spec.param("seed"));
    scenario::ScenarioOverrides overrides;
    overrides.obs_sample_interval = p.delta;
    return runner::scenario_metrics(scenario::run_inria_umd(p, overrides));
  };
  std::vector<runner::RunSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back({"r" + std::to_string(i), {{"seed", 1993.0 + i}}});
  }

  runner::SweepOptions one;
  one.threads = 1;
  runner::SweepOptions four;
  four.threads = 4;
  const runner::SweepResult serial = runner::run_sweep(specs, job, one);
  const runner::SweepResult parallel = runner::run_sweep(specs, job, four);

  EXPECT_EQ(runner::sweep_to_json(serial), runner::sweep_to_json(parallel));
  for (const runner::RunResult& run : serial.runs) {
    bool saw_obs = false;
    for (const runner::Metric& metric : run.metrics) {
      saw_obs = saw_obs || metric.name.rfind("obs.", 0) == 0;
    }
    EXPECT_TRUE(saw_obs);  // the snapshot actually flowed into the metrics
  }
}

}  // namespace
}  // namespace bolot::obs

// Parallel sweep runner: executes N independent simulation runs on a
// fixed-size thread pool and aggregates per-run results.
//
// Every benchmark in bench/ is a sweep — dozens of independent 10-minute
// simulations over a grid of (delta, buffer, load, ...) — which is
// embarrassingly parallel.  The runner's contract is that results are
// *bit-identical regardless of thread count or schedule*: run k always
// receives seed derive_stream_seed(base_seed, k), each job writes only
// its own result slot, and results are returned in spec order.  Wall-clock
// fields are the only schedule-dependent outputs and can be excluded from
// serialization (see sweep_io.h) when byte-stable artifacts are needed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/scenarios.h"

namespace bolot::runner {

/// One named scalar.  Params and metrics are ordered vectors (not maps) so
/// serialization order is the declaration order, deterministically.
struct Metric {
  std::string name;
  double value = 0.0;
};

/// Looks up `name` in an ordered metric list; nullptr when absent.
const double* find_metric(const std::vector<Metric>& metrics,
                          const std::string& name);

/// One point of the sweep grid: a display label plus the machine-readable
/// parameters that define the run.
struct RunSpec {
  std::string label;
  std::vector<Metric> params;

  /// Convenience accessor; throws std::out_of_range when absent.
  double param(const std::string& name) const;
};

/// What a job sees: its position in the grid, its derived seed, and its
/// spec.  `seed` depends only on (base_seed, index), never on scheduling.
struct RunContext {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  const RunSpec* spec = nullptr;

  double param(const std::string& name) const { return spec->param(name); }
};

/// Per-run record collected by the runner.
struct RunResult {
  std::size_t index = 0;
  std::string label;
  std::uint64_t seed = 0;
  std::vector<Metric> params;   // copied from the spec
  std::vector<Metric> metrics;  // returned by the job
  double wall_seconds = 0.0;    // job wall clock (schedule-dependent)
  bool failed = false;
  std::string error;  // exception message when failed

  const double* metric(const std::string& name) const {
    return find_metric(metrics, name);
  }
  /// Param by name; throws std::out_of_range when absent.
  double param(const std::string& name) const;
};

struct SweepResult {
  std::string name;
  std::uint64_t base_seed = 0;
  std::size_t threads = 0;      // pool size actually used
  std::vector<RunResult> runs;  // in spec order, one per spec
  double wall_seconds = 0.0;    // whole-sweep wall clock
};

struct SweepOptions {
  std::string name = "sweep";
  /// Jobs that run at once; 0 = the shared pool (hardware concurrency).
  std::size_t threads = 0;
  std::uint64_t base_seed = 1993;
};

/// A job maps a run context to its metrics.  Jobs run concurrently and
/// must not share mutable state; throwing marks the run failed (the sweep
/// continues).
using SweepJob = std::function<std::vector<Metric>(const RunContext&)>;

/// Runs one job per spec on a fixed-size pool; blocks until all finish.
SweepResult run_sweep(const std::vector<RunSpec>& specs, const SweepJob& job,
                      const SweepOptions& options = {});

/// Standard per-run stats for a scenario run: loss stats (ulp, clp, plg,
/// mean burst, probe/loss counts), delay percentiles (p50/p95/p99 rtt),
/// bottleneck and path drop counters, and event count, followed by every
/// scalar entry of the run's metrics snapshot as "obs.<name>" (the prefix
/// keeps them from colliding with the names above).  Benches append their
/// sweep-specific extras to this base.
std::vector<Metric> scenario_metrics(const scenario::ScenarioResult& result);

}  // namespace bolot::runner

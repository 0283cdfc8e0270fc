// Parallel sweep runner: executes N independent simulation runs on a
// fixed-size thread pool and aggregates per-run results.
//
// Every benchmark in bench/ is a sweep — dozens of independent 10-minute
// simulations over a grid of (delta, buffer, load, ...) — which is
// embarrassingly parallel.  The runner's contract is that a sweep's result
// is a pure function of its specs, its job and base_seed, bit-identical
// regardless of thread count or schedule: each job sees only its own
// spec, writes only its own result slot, and results are returned in spec
// order.  The runner reads no clock; run timing lives in bench/perf_ledger.
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

/// Per-run record collected by the runner.
struct RunResult {
  std::size_t index = 0;
  std::string label;
  std::vector<Metric> params;   // copied from the spec
  std::vector<Metric> metrics;  // returned by the job
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
  std::vector<RunResult> runs;  // in spec order, one per spec
};

struct SweepOptions {
  std::string name = "sweep";
  /// Jobs that run at once: the size of the sweep's own pool; 0 =
  /// hardware concurrency (at least 1).
  std::size_t threads = 0;
  /// The seed every run of the sweep uses.  The job applies it (the
  /// runner hands out no per-run seeds); the runner records it so the
  /// artifact says what ran.
  std::uint64_t base_seed = 1993;
};

/// A job maps a run's spec to its metrics.  Jobs run concurrently and
/// must not share mutable state; throwing marks the run failed (the sweep
/// continues).
using SweepJob = std::function<std::vector<Metric>(const RunSpec&)>;

/// Runs one job per spec on a pool of `options.threads` workers built for
/// this call; blocks until all finish.
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

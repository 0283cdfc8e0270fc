#include "runner/sweep.h"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "analysis/loss.h"
#include "analysis/stats.h"
#include "runner/thread_pool.h"
#include "util/audit.h"
#include "util/rng.h"

namespace bolot::runner {

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

}  // namespace

const double* find_metric(const std::vector<Metric>& metrics,
                          const std::string& name) {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return &metric.value;
  }
  return nullptr;
}

namespace {
double require_param(const std::vector<Metric>& params,
                     const std::string& name) {
  const double* value = find_metric(params, name);
  if (value == nullptr) {
    throw std::out_of_range("sweep: no param named " + name);
  }
  return *value;
}
}  // namespace

double RunSpec::param(const std::string& name) const {
  return require_param(params, name);
}

double RunResult::param(const std::string& name) const {
  return require_param(params, name);
}

SweepResult run_sweep(const std::vector<RunSpec>& specs, const SweepJob& job,
                      const SweepOptions& options) {
  if (!job) throw std::invalid_argument("run_sweep: null job");
  const auto sweep_start = std::chrono::steady_clock::now();

  SweepResult sweep;
  sweep.name = options.name;
  sweep.base_seed = options.base_seed;
  sweep.runs.resize(specs.size());

  // threads == 0 (the default) fans out on the process-wide shared pool —
  // reused across sweeps, and the same workers PDES domains borrow — via
  // a TaskGroup, which scopes completion and errors to this sweep.  An
  // explicit thread count gets a private pool and runs exactly that many
  // jobs at once (benches use threads=1 for undisturbed timing).
  std::optional<ThreadPool> own_pool;
  if (options.threads != 0) own_pool.emplace(options.threads);
  ThreadPool& pool = own_pool ? *own_pool : shared_pool();
  TaskGroup group(pool);
  sweep.threads = pool.thread_count();
  // Result-slot write-once discipline: slot i is written by exactly one
  // job, exactly once.  Each counter has a single writer (its own job),
  // so the increment needs no synchronization; the final SIM_CHECK runs
  // after the pool's completion barrier has published every write.
  std::vector<std::uint8_t> slot_writes(specs.size(), 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    // Each task owns result slot i exclusively, so no synchronization
    // beyond the pool's completion barrier is needed.
    group.submit([&, i] {
      ++slot_writes[i];
      RunResult& run = sweep.runs[i];
      run.index = i;
      run.label = specs[i].label;
      run.seed = derive_stream_seed(options.base_seed, i);
      run.params = specs[i].params;
      RunContext context{i, run.seed, &specs[i]};
      const auto run_start = std::chrono::steady_clock::now();
      try {
        run.metrics = job(context);
      } catch (const std::exception& e) {
        run.failed = true;
        run.error = e.what();
      } catch (...) {
        run.failed = true;
        run.error = "unknown exception";
      }
      run.wall_seconds = elapsed_seconds(run_start);
    });
  }
  // TaskGroup::wait runs queued jobs on this thread; on a private pool
  // that would be one job more than `threads`, so wait on the pool itself.
  if (own_pool) own_pool->wait_idle();
  group.wait();
  for (std::size_t i = 0; i < slot_writes.size(); ++i) {
    SIM_CHECK(slot_writes[i] == 1,
              "run_sweep(%s): result slot %zu written %u times (seed "
              "stream %llu) — runs are no longer independent",
              options.name.c_str(), i, slot_writes[i],
              static_cast<unsigned long long>(
                  derive_stream_seed(options.base_seed, i)));
  }

  sweep.wall_seconds = elapsed_seconds(sweep_start);
  return sweep;
}

std::vector<Metric> scenario_metrics(const scenario::ScenarioResult& result) {
  std::vector<Metric> metrics;
  const analysis::LossStats loss = analysis::loss_stats(result.trace);
  metrics.push_back({"ulp", loss.ulp});
  metrics.push_back({"clp", loss.clp});
  metrics.push_back({"plg", loss.plg_from_clp});
  metrics.push_back({"mean_burst", loss.mean_burst_length});
  metrics.push_back({"probes", static_cast<double>(loss.probes)});
  metrics.push_back({"losses", static_cast<double>(loss.losses)});
  const std::vector<double> rtts = result.trace.rtt_ms_received();
  if (!rtts.empty()) {
    metrics.push_back({"rtt_p50_ms", analysis::quantile(rtts, 0.50)});
    metrics.push_back({"rtt_p95_ms", analysis::quantile(rtts, 0.95)});
    metrics.push_back({"rtt_p99_ms", analysis::quantile(rtts, 0.99)});
  }
  const sim::LinkStats& fwd = result.bottleneck_forward;
  metrics.push_back(
      {"bneck_overflow_drops", static_cast<double>(fwd.overflow_drops)});
  metrics.push_back(
      {"bneck_random_drops", static_cast<double>(fwd.random_drops)});
  metrics.push_back({"bneck_red_drops", static_cast<double>(fwd.red_drops)});
  metrics.push_back(
      {"bneck_channel_drops", static_cast<double>(fwd.channel_drops)});
  metrics.push_back({"path_overflow_drops",
                     static_cast<double>(result.total_overflow_drops)});
  metrics.push_back(
      {"path_random_drops", static_cast<double>(result.total_random_drops)});
  metrics.push_back(
      {"path_channel_drops", static_cast<double>(result.total_channel_drops)});
  metrics.push_back({"events", static_cast<double>(result.events)});
  for (const obs::SnapshotEntry& entry : result.metrics.entries) {
    metrics.push_back({"obs." + entry.name, entry.value});
  }
  return metrics;
}

}  // namespace bolot::runner

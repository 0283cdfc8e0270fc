// Tracked perf baseline for the hybrid fluid/packet engine: the event
// bill must scale with *probed* packets, not with the size of the
// background flow population.
//
// Two row families run the same generated fat-tree (k = 4, 16 hosts)
// under the same probe plan and the same calibrated 40% hottest-link
// load:
//
//   fluid_nN    the whole population is fluid (packetize_radius unset):
//               flows are folded into per-link mean rates plus a 3-state
//               envelope process per loaded link, so the event count is
//               O(probes + links), independent of N.  Rows sweep N from
//               10^3 to 10^6 — the "events" column must stay flat.
//   packet_nN   the same population simulated packet-by-packet
//               (packetize_radius = 100 covers every link).  Only small
//               N are affordable here: every background packet is an
//               event, so each row costs two to three orders of
//               magnitude more than any fluid row and keeps growing
//               with N (more flows spread load over more links at the
//               same calibrated hottest-link utilization).
//
// Emits BENCH_fluid.{json,csv} (runner/sweep_io convention) into --out
// DIR, defaulting to the current directory; CI uploads the JSON and
// feeds it to tools/bench_diff.py.  --quick shortens the probe run and
// the packetized grid for CI smoke runs; it keeps the 10^6 fluid row,
// whose set-up is one pass over flows x route hops.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "runner/sweep.h"
#include "runner/sweep_cli.h"
#include "runner/sweep_io.h"
#include "scenario/scenarios.h"
#include "util/table.h"

namespace {

using namespace bolot;

using Clock = std::chrono::steady_clock;

struct ScaleResult {
  std::uint64_t events = 0;
  std::uint64_t probes_received = 0;
  std::uint64_t flows_fluid = 0;
  std::uint64_t flows_packetized = 0;
  double wall_seconds = 0.0;
};

ScaleResult run_one(std::size_t flows, bool fluid, Duration duration,
                    Duration delta, std::uint64_t seed) {
  scenario::ProbePlan plan;
  plan.delta = delta;
  plan.duration = duration;
  plan.seed = seed;

  scenario::ScenarioOverrides overrides;
  scenario::TopologySpec spec;
  spec.fat_tree_k = 4;
  spec.hosts_per_edge = 2;
  spec.seed = 3;
  overrides.topology = spec;

  scenario::FluidBackgroundConfig background;
  background.flows = flows;
  background.max_link_load = 0.4;  // calibrated: same load at every N
  background.envelope_states = 3;
  overrides.fluid_background = background;
  if (!fluid) overrides.packetize_radius = 100;  // covers the whole fabric

  const auto start = Clock::now();
  const scenario::ScenarioResult run = scenario::run_topology(plan, overrides);
  ScaleResult result;
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.events = run.events;
  result.probes_received = run.trace.received_count();
  result.flows_fluid = run.background_flows_fluid;
  result.flows_packetized = run.background_flows_packetized;
  return result;
}

std::vector<runner::Metric> to_metrics(const ScaleResult& r) {
  std::vector<runner::Metric> metrics;
  metrics.push_back({"events", static_cast<double>(r.events)});
  metrics.push_back({"probes_received",
                     static_cast<double>(r.probes_received)});
  metrics.push_back({"flows_fluid", static_cast<double>(r.flows_fluid)});
  metrics.push_back(
      {"flows_packetized", static_cast<double>(r.flows_packetized)});
  metrics.push_back({"kernel_wall_seconds", r.wall_seconds});
  // bench_diff gates every *per_sec metric at 30%; the small fluid rows
  // finish in single-digit milliseconds where shared-runner timing noise
  // dwarfs that, so only rows with a measurable wall time emit the rate.
  if (r.wall_seconds >= 0.1) {
    metrics.push_back({"events_per_sec",
                       static_cast<double>(r.events) / r.wall_seconds});
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  // parse_sweep_cli rejects unknown flags, so --quick is peeled off first.
  bool quick = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  runner::SweepCli cli;
  try {
    cli = runner::parse_sweep_cli(static_cast<int>(args.size()), args.data());
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n"
              << runner::sweep_cli_usage("fluid_scale_baseline")
              << "  --quick          short CI-smoke grid\n";
    return 2;
  }
  if (cli.out_dir.empty()) cli.out_dir = ".";

  const Duration duration = quick ? Duration::seconds(4) : Duration::seconds(10);
  const Duration delta = quick ? Duration::millis(20) : Duration::millis(10);
  const std::vector<std::size_t> fluid_counts{1000, 10000, 100000, 1000000};
  const std::vector<std::size_t> packet_counts =
      quick ? std::vector<std::size_t>{250, 500}
            : std::vector<std::size_t>{250, 500, 1000};

  std::vector<runner::RunSpec> specs;
  const auto add_spec = [&specs](const char* mode, std::size_t flows) {
    runner::RunSpec spec;
    spec.label = std::string(mode) + "_n" + std::to_string(flows);
    spec.params.push_back({"flows", static_cast<double>(flows)});
    spec.params.push_back(
        {"fluid", std::strcmp(mode, "fluid") == 0 ? 1.0 : 0.0});
    specs.push_back(std::move(spec));
  };
  for (const std::size_t n : fluid_counts) add_spec("fluid", n);
  for (const std::size_t n : packet_counts) add_spec("packet", n);

  runner::SweepOptions options;
  options.name = "fluid";
  options.threads = 1;  // one timing run at a time
  options.base_seed = cli.base_seed;

  const runner::SweepResult sweep = runner::run_sweep(
      specs,
      [&](const runner::RunContext& ctx) {
        const auto flows =
            static_cast<std::size_t>(ctx.spec->param("flows"));
        const bool fluid = ctx.spec->param("fluid") > 0.5;
        return to_metrics(run_one(flows, fluid, duration, delta, 1993));
      },
      options);

  TextTable table;
  table.row({"mode", "background flows", "events", "events/sec", "wall(s)"});
  for (const runner::RunResult& run : sweep.runs) {
    if (run.failed) {
      std::cerr << run.label << ": " << run.error << "\n";
      return 1;
    }
    const double* rate = run.metric("events_per_sec");
    table.row({});
    table.cell(run.label)
        .cell(static_cast<std::int64_t>(run.param("flows")))
        .cell(static_cast<std::int64_t>(*run.metric("events")))
        .cell(rate != nullptr ? *rate : 0.0, 0)
        .cell(*run.metric("kernel_wall_seconds"), 4);
  }
  std::cout << "Hybrid fluid/packet scaling baseline (fat-tree k=4, "
               "calibrated 40% load)\n\n";
  table.print(std::cout);
  std::cout << "\nexpected: the fluid rows' event count is flat in the flow "
               "count (the bill\nscales with probed packets); the packet "
               "rows grow with the population.\n";

  // The property the engine exists for, enforced at the exit code: the
  // largest fluid population must not cost materially more events than
  // the smallest one.
  const runner::RunResult& fluid_small = sweep.runs.front();
  const runner::RunResult& fluid_large = sweep.runs[fluid_counts.size() - 1];
  const double small_events = *fluid_small.metric("events");
  const double large_events = *fluid_large.metric("events");
  if (large_events > 1.05 * small_events) {
    std::cerr << "fluid event count grew with the population: "
              << small_events << " -> " << large_events << "\n";
    return 1;
  }

  try {
    const std::string path = runner::write_sweep_artifacts(sweep, cli.out_dir);
    std::cout << "\nartifacts: " << path << " (+ .csv)\n";
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}

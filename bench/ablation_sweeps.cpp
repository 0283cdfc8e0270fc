// Ablations over the design choices DESIGN.md calls out: how the headline
// observables (ulp, clp, D-hat, compression) respond to
//   * bottleneck buffer size K,
//   * cross-traffic intensity,
//   * faulty-interface drop rate,
//   * traffic composition (paced sessions vs open-loop bursts),
//   * probe wire size.
// These separate the mechanisms behind Table 3: random drops set the loss
// floor, buffer size and burstiness set the conditional loss.
//
// Each ablation is an independent grid of 10-minute simulations, so all
// five run on the parallel sweep runner: --threads N distributes the runs,
// and --out DIR exports one BENCH_ablation_*.json per ablation.
#include <iostream>
#include <stdexcept>
#include <vector>

#include "analysis/lindley.h"
#include "analysis/phase_plot.h"
#include "runner/sweep.h"
#include "runner/sweep_cli.h"
#include "runner/sweep_io.h"
#include "scenario/scenarios.h"
#include "util/table.h"

namespace {

using namespace bolot;

runner::SweepCli g_cli;

/// Runs one ablation grid on the pool and exports its artifacts.
runner::SweepResult run_ablation(const std::string& name,
                                 const std::vector<runner::RunSpec>& specs,
                                 const runner::SweepJob& job) {
  runner::SweepOptions options;
  options.name = name;
  options.threads = g_cli.threads;
  options.base_seed = g_cli.base_seed;
  runner::SweepResult sweep = runner::run_sweep(specs, job, options);
  for (const runner::RunResult& run : sweep.runs) {
    if (run.failed) {
      std::cerr << name << " " << run.label << ": " << run.error << "\n";
      std::exit(1);
    }
  }
  if (!g_cli.out_dir.empty()) {
    try {
      runner::write_sweep_artifacts(sweep, g_cli.out_dir);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      std::exit(1);
    }
  }
  return sweep;
}

/// The ablations vary overrides around one fixed probe plan.
std::vector<runner::Metric> run_point(
    const scenario::ScenarioOverrides& overrides, double delta_ms) {
  scenario::ProbePlan plan;
  plan.delta = Duration::millis(delta_ms);
  plan.duration = Duration::minutes(10);
  plan.seed = g_cli.base_seed;  // fixed across grid points (as the serial
                                // bench did) so rows stay comparable
  const auto result = scenario::run_inria_umd(plan, overrides);
  return runner::scenario_metrics(result);
}

void sweep_buffer() {
  std::cout << "Ablation 1: bottleneck buffer size K (delta = 50 ms)\n";
  std::vector<runner::RunSpec> specs;
  for (std::size_t k : {4u, 8u, 14u, 24u, 40u, 64u}) {
    specs.push_back({"K=" + std::to_string(k),
                     {{"buffer_packets", static_cast<double>(k)}}});
  }
  const auto sweep = run_ablation(
      "ablation_buffer", specs, [](const runner::RunSpec& spec) {
        scenario::ScenarioOverrides ov;
        ov.bottleneck_buffer_packets =
            static_cast<std::size_t>(spec.param("buffer_packets"));
        return run_point(ov, 50.0);
      });
  TextTable table;
  table.row({"K(packets)", "ulp", "clp", "plg"});
  for (const auto& run : sweep.runs) {
    table.row({});
    table.cell(static_cast<std::int64_t>(run.param("buffer_packets")))
        .cell(*run.metric("ulp"), 3)
        .cell(*run.metric("clp"), 3)
        .cell(*run.metric("plg"), 2);
  }
  table.print(std::cout);
  std::cout << "expected: small K raises overflow loss; clp falls with K "
               "faster than ulp\n(the loss floor is the faulty-interface "
               "rate).\n\n";
}

void sweep_cross_load() {
  std::cout << "Ablation 2: cross-traffic intensity (delta = 50 ms)\n";
  std::vector<runner::RunSpec> specs;
  for (double scale : {0.0, 0.5, 1.0, 1.5, 2.0}) {
    specs.push_back(
        {"load=" + format_double(scale, 2), {{"load_scale", scale}}});
  }
  const auto sweep = run_ablation(
      "ablation_cross_load", specs, [](const runner::RunSpec& spec) {
        const double scale = spec.param("load_scale");
        scenario::ScenarioOverrides ov;
        scenario::CrossTraffic cross;
        cross.session_load *= scale;
        cross.bulk_load *= scale;
        cross.interactive_load *= scale;
        ov.cross_traffic = cross;
        scenario::ProbePlan plan;
        plan.delta = Duration::millis(50);
        plan.duration = Duration::minutes(10);
        plan.seed = g_cli.base_seed;
        const auto result = scenario::run_inria_umd(plan, ov);
        auto metrics = runner::scenario_metrics(result);
        const auto phase = analysis::analyze_phase_plot(result.trace);
        metrics.push_back(
            {"compression_frac", phase.compression_fraction});
        return metrics;
      });
  TextTable table;
  table.row({"load_scale", "ulp", "clp", "compression_frac"});
  for (const auto& run : sweep.runs) {
    table.row({});
    table.cell(run.param("load_scale"), 2)
        .cell(*run.metric("ulp"), 3)
        .cell(*run.metric("clp"), 3)
        .cell(*run.metric("compression_frac"), 3);
  }
  table.print(std::cout);
  std::cout << "expected: with no cross traffic, loss drops to the random "
               "floor and\ncompression disappears; both grow with load.\n\n";
}

void sweep_faulty_drop() {
  std::cout << "Ablation 3: faulty-interface drop rate (delta = 200 ms)\n";
  std::vector<runner::RunSpec> specs;
  for (double drop : {0.0, 0.005, 0.011, 0.02, 0.03}) {
    specs.push_back(
        {"drop=" + format_double(drop, 3), {{"faulty_drop", drop}}});
  }
  const auto sweep = run_ablation(
      "ablation_faulty_drop", specs, [](const runner::RunSpec& spec) {
        scenario::ScenarioOverrides ov;
        ov.faulty_interface_drop =
            Probability::checked(spec.param("faulty_drop"));
        return run_point(ov, 200.0);
      });
  TextTable table;
  table.row({"drop/traversal", "ulp", "clp", "clp/ulp"});
  for (const auto& run : sweep.runs) {
    const double ulp = *run.metric("ulp");
    const double clp = *run.metric("clp");
    table.row({});
    table.cell(run.param("faulty_drop"), 3)
        .cell(ulp, 3)
        .cell(clp, 3)
        .cell(ulp > 0 ? clp / ulp : 0.0, 2);
  }
  table.print(std::cout);
  std::cout << "expected: random drops raise ulp but keep clp ~ ulp (they "
               "are memoryless),\nso clp/ulp falls toward 1 as they "
               "dominate.\n\n";
}

void sweep_composition() {
  std::cout << "Ablation 4: traffic composition at fixed total load "
               "(delta = 50 ms)\n";
  const double total = 0.50;
  std::vector<runner::RunSpec> specs;
  for (double session_share : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    specs.push_back({"sessions=" + format_double(session_share, 2),
                     {{"session_share", session_share},
                      {"total_load", total}}});
  }
  const auto sweep = run_ablation(
      "ablation_composition", specs, [](const runner::RunSpec& spec) {
        scenario::ScenarioOverrides ov;
        scenario::CrossTraffic cross;
        cross.session_load =
            spec.param("total_load") * spec.param("session_share");
        cross.bulk_load =
            spec.param("total_load") * (1.0 - spec.param("session_share"));
        ov.cross_traffic = cross;
        return run_point(ov, 50.0);
      });
  TextTable table;
  table.row({"sessions", "bursts", "ulp", "clp", "plg"});
  for (const auto& run : sweep.runs) {
    const double sessions =
        run.param("total_load") * run.param("session_share");
    table.row({});
    table.cell(sessions, 2)
        .cell(run.param("total_load") - sessions, 2)
        .cell(*run.metric("ulp"), 3)
        .cell(*run.metric("clp"), 3)
        .cell(*run.metric("plg"), 2);
  }
  table.print(std::cout);
  std::cout << "expected: open-loop bursts produce burstier loss (higher "
               "clp and plg)\nthan paced sessions at the same average "
               "load.\n";
}

void sweep_probe_size() {
  std::cout << "Ablation 5: probe wire size (delta = 50 ms)\n";
  std::vector<runner::RunSpec> specs;
  for (const std::int64_t bytes : {40L, 72L, 128L, 256L, 512L}) {
    specs.push_back({"P=" + std::to_string(bytes),
                     {{"probe_bytes", static_cast<double>(bytes)}}});
  }
  const auto sweep = run_ablation(
      "ablation_probe_size", specs, [](const runner::RunSpec& spec) {
        scenario::ProbePlan plan;
        plan.delta = Duration::millis(50);
        plan.duration = Duration::minutes(10);
        plan.probe_wire = ByteSize::bytes(
            static_cast<std::int64_t>(spec.param("probe_bytes")));
        plan.seed = g_cli.base_seed;
        const auto result = scenario::run_inria_umd(plan);
        auto metrics = runner::scenario_metrics(result);
        // mu-hat is only defined when a compression cluster exists and
        // carries enough mass; absent metrics render as "-" / blank cells.
        try {
          const auto mu = analysis::estimate_bottleneck(result.trace);
          if (mu.cluster_fraction >= 0.02) {
            metrics.push_back({"mu_hat_bps", mu.mu_bps});
          }
        } catch (const std::exception&) {
        }
        return metrics;
      });
  TextTable table;
  table.row({"probe bytes", "probe load", "ulp", "clp", "mu-hat(kb/s)"});
  for (const auto& run : sweep.runs) {
    table.row({});
    table.cell(static_cast<std::int64_t>(run.param("probe_bytes")))
        .cell(run.param("probe_bytes") * 8 /
                  (0.050 * scenario::kInriaUmdBottleneck.bps()),
              3)
        .cell(*run.metric("ulp"), 3)
        .cell(*run.metric("clp"), 3);
    if (const double* mu = run.metric("mu_hat_bps")) {
      table.cell(format_double(*mu / 1e3, 1));
    } else {
      table.cell("-");
    }
  }
  table.print(std::cout);
  std::cout << "expected: bigger probes raise the probe load (and loss) and "
               "widen the\ncompression peak (P/mu grows past the clock "
               "tick), improving mu-hat.\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    g_cli = runner::parse_sweep_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n"
              << runner::sweep_cli_usage("ablation_sweeps");
    return 2;
  }
  sweep_buffer();
  sweep_cross_load();
  sweep_faulty_drop();
  sweep_composition();
  sweep_probe_size();
  return 0;
}

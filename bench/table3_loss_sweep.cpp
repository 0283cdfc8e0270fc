// Reproduces Table 3: ulp, clp and plg for
// delta in {8, 20, 50, 100, 200, 500} ms over the INRIA->UMd path.
//
// Paper values (delta: ulp / clp / plg):
//    8: 0.23 / 0.60 / 2.5      100: 0.10 / 0.18 / 1.2
//   20: 0.16 / 0.42 / 1.7      200: 0.11 / 0.18 / 1.2
//   50: 0.12 / 0.27 / 1.3      500: 0.09* / 0.09 / 1.1
// (*) the printed 0.97 is an obvious typo for ~0.09: plg = 1/(1-clp)
// forces ulp <= values consistent with clp = 0.09 at stationarity.
//
// The shape to reproduce: ulp and clp decrease with delta; clp >> ulp at
// small delta (bursty loss when probes take a large share of the 128 kb/s
// bottleneck); clp -> ulp and plg -> ~1.1 as delta grows (losses become
// essentially random); ulp stabilizes near 10%.
//
// The six delta points are independent simulations, so they run on the
// parallel sweep runner: --threads N distributes them over N workers with
// identical results for any N (see runner/sweep.h), and --out DIR exports
// the machine-readable BENCH_table3_loss_sweep.json trajectory.
#include <iostream>
#include <vector>

#include "runner/sweep.h"
#include "runner/sweep_cli.h"
#include "runner/sweep_io.h"
#include "scenario/scenarios.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace bolot;
  runner::SweepCli cli;
  try {
    cli = runner::parse_sweep_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n"
              << runner::sweep_cli_usage("table3_loss_sweep");
    return 2;
  }

  const double deltas_ms[] = {8, 20, 50, 100, 200, 500};
  std::vector<runner::RunSpec> specs;
  for (double delta_ms : deltas_ms) {
    specs.push_back(
        {"delta=" + format_double(delta_ms, 0), {{"delta_ms", delta_ms}}});
  }

  runner::SweepOptions options;
  options.name = "table3_loss_sweep";
  options.threads = cli.threads;
  options.base_seed = cli.base_seed;

  const runner::SweepResult sweep = runner::run_sweep(
      specs,
      [&](const runner::RunSpec& spec) {
        scenario::ProbePlan plan;
        plan.delta = Duration::millis(spec.param("delta_ms"));
        plan.duration = Duration::minutes(10);
        plan.seed = cli.base_seed;  // fixed across deltas, as the serial
                                    // bench did, so rows stay comparable
        const auto result = scenario::run_inria_umd(plan);
        auto metrics = runner::scenario_metrics(result);
        metrics.push_back(
            {"probe_load",
             static_cast<double>(plan.probe_wire.count() * 8) /
                 (plan.delta.seconds() * scenario::kInriaUmdBottleneck.bps())});
        return metrics;
      },
      options);

  TextTable table;
  table.row({"delta(ms)", "ulp", "clp", "plg", "mean_burst", "probes",
             "probe_load"});
  for (const runner::RunResult& run : sweep.runs) {
    if (run.failed) {
      std::cerr << run.label << ": " << run.error << "\n";
      return 1;
    }
    table.row({});
    table.cell(format_double(run.param("delta_ms"), 0))
        .cell(*run.metric("ulp"), 3)
        .cell(*run.metric("clp"), 3)
        .cell(*run.metric("plg"), 2)
        .cell(*run.metric("mean_burst"), 2)
        .cell(static_cast<std::int64_t>(*run.metric("probes")))
        .cell(*run.metric("probe_load"), 3);
  }
  std::cout << "Table 3: probe loss vs probe interval (INRIA -> UMd)\n\n";
  table.print(std::cout);
  std::cout << "\npaper:     ulp 0.23 0.16 0.12 0.10 0.11 ~0.09\n"
            << "           clp 0.60 0.42 0.27 0.18 0.18 0.09\n"
            << "           plg 2.5  1.7  1.3  1.2  1.2  1.1\n";

  if (!cli.out_dir.empty()) {
    try {
      const std::string path =
          runner::write_sweep_artifacts(sweep, cli.out_dir);
      std::cout << "\nartifacts: " << path << "\n";
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}

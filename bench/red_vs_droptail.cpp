// Queue-management ablation: RED vs drop-tail at the INRIA->UMd
// bottleneck.
//
// RED (Floyd & Jacobson 1993, contemporary with the paper) drops early
// and probabilistically instead of in bursts when the buffer fills.  For
// the paper's loss metrics the prediction is sharp: comparable ulp but
// lower clp/plg — RED randomizes drops, pushing the loss process toward
// the "essentially random" regime the paper observed at large delta even
// for small delta.
//
// The six (delta, queue) cells are independent simulations and run on the
// parallel sweep runner (--threads N; --out DIR exports
// BENCH_red_vs_droptail.{json,csv}).
#include <iostream>
#include <stdexcept>
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
    if (cli.replicates != 1) {
      throw std::invalid_argument(
          "--replicates: red_vs_droptail runs one replicate per cell");
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n"
              << runner::sweep_cli_usage("red_vs_droptail");
    return 2;
  }

  std::vector<runner::RunSpec> specs;
  for (double delta_ms : {8.0, 50.0, 200.0}) {
    for (int use_red = 0; use_red <= 1; ++use_red) {
      runner::RunSpec spec;
      spec.label = "delta=" + format_double(delta_ms, 0) +
                   (use_red != 0 ? "/RED" : "/drop-tail");
      spec.params = {{"delta_ms", delta_ms},
                     {"red", static_cast<double>(use_red)}};
      specs.push_back(std::move(spec));
    }
  }

  runner::SweepOptions options;
  options.name = "red_vs_droptail";
  options.threads = cli.threads;
  options.base_seed = cli.base_seed;

  const runner::SweepResult sweep = runner::run_sweep(
      specs,
      [&](const runner::RunContext& ctx) {
        scenario::ProbePlan plan;
        plan.delta = Duration::millis(ctx.param("delta_ms"));
        plan.duration = Duration::minutes(10);
        plan.seed = cli.base_seed;  // fixed across cells, as the serial
                                    // bench did, so rows stay comparable
        scenario::ScenarioOverrides overrides;
        if (ctx.param("red") != 0.0) {
          sim::RedConfig red;
          red.min_threshold = 3.0;
          red.max_threshold = 11.0;
          red.max_probability = Probability::checked(0.1);
          red.weight = 0.02;
          overrides.bottleneck_red = red;
        }
        const auto result = scenario::run_inria_umd(plan, overrides);
        return runner::scenario_metrics(result);
      },
      options);

  std::cout << "RED vs drop-tail at the 128 kb/s bottleneck "
               "(10-minute runs)\n\n";
  TextTable table;
  table.row({"delta(ms)", "queue", "ulp", "clp", "plg", "p95 rtt(ms)"});
  for (const runner::RunResult& run : sweep.runs) {
    if (run.failed) {
      std::cerr << run.label << ": " << run.error << "\n";
      return 1;
    }
    table.row({});
    table.cell(format_double(run.param("delta_ms"), 0))
        .cell(run.param("red") != 0.0 ? "RED" : "drop-tail")
        .cell(*run.metric("ulp"), 3)
        .cell(*run.metric("clp"), 3)
        .cell(*run.metric("plg"), 2)
        .cell(*run.metric("rtt_p95_ms"), 1);
  }
  table.print(std::cout);
  std::cout << "\nexpected: RED keeps the average queue short (lower p95 "
               "rtt) but, because the\ncalibrated cross traffic is open-"
               "loop (it does not react to drops), it cannot\nde-burst the "
               "loss process — clp and plg stay at drop-tail levels while "
               "total\nloss rises slightly.  RED's advertised benefits need "
               "*responsive* sources;\nsee bench/tcp_cross_traffic for the "
               "closed-loop side of that story.\n";

  if (!cli.out_dir.empty()) {
    try {
      const std::string path =
          runner::write_sweep_artifacts(sweep, cli.out_dir);
      std::cout << "\nartifacts: " << path << " (+ .csv)\n";
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}

// The loss regime the paper could not measure: Bolot's 1992 path showed
// plg ~ 1 ("losses are essentially random") even at small delta, so the
// ulp/clp/plg machinery of section 5 was only ever exercised near the
// random end.  Modern cellular and Wi-Fi paths are bursty (plg >> 1).
// This bench drives the INRIA->UMd scenario through a Gilbert-Elliott
// MarkovChannel at the bottleneck, sweeping the target loss gap across
// {1, 2, 5, 10, 20} at fixed ~8% stationary loss, and re-runs the whole
// section-5 analysis chain on each cell: ulp/clp/plg, both loss-gap
// estimators and their agreement, the Wald-Wolfowitz runs test, and the
// FEC design task (smallest repair depth k meeting a 1% residual).
//
// Cross traffic and the faulty-interface stage are switched off and the
// bottleneck buffer is oversized, so every lost probe is a channel drop:
// the measured loss process is the channel's, and measured plg should
// track the target within sampling noise (the channel_test property pins
// this within 10% over 10^6 probes).
//
// Flags: the shared sweep flags (--threads/--seed/--out).
#include <iostream>
#include <vector>

#include "analysis/loss.h"
#include "runner/sweep.h"
#include "runner/sweep_cli.h"
#include "runner/sweep_io.h"
#include "scenario/scenarios.h"
#include "sim/channel.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace bolot;

  runner::SweepCli cli;
  try {
    cli = runner::parse_sweep_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n"
              << runner::sweep_cli_usage("bursty_loss_sweep");
    return 2;
  }

  const double target_ulp = 0.08;
  const std::vector<double> target_plgs = {1, 2, 5, 10, 20};
  const Duration duration = Duration::minutes(20);

  std::vector<runner::RunSpec> specs;
  for (double plg : target_plgs) {
    specs.push_back({"plg=" + format_double(plg, 0),
                     {{"target_plg", plg}, {"target_ulp", target_ulp}}});
  }

  runner::SweepOptions options;
  options.name = "bursty_loss_sweep";
  options.threads = cli.threads;
  options.base_seed = cli.base_seed;

  const runner::SweepResult sweep = runner::run_sweep(
      specs,
      [&](const runner::RunSpec& spec) {
        scenario::ProbePlan plan;
        plan.delta = Duration::millis(20);
        plan.duration = duration;
        plan.seed = cli.base_seed;

        scenario::ScenarioOverrides overrides;
        overrides.bottleneck_channel =
            sim::MarkovChannelConfig::from_loss_targets(
                Probability::checked(spec.param("target_ulp")),
                spec.param("target_plg"));
        // Isolate the channel: no competing traffic, no faulty interfaces,
        // and a buffer deep enough that probes never overflow.
        scenario::CrossTraffic no_cross;
        no_cross.session_load = 0.0;
        no_cross.bulk_load = 0.0;
        no_cross.interactive_load = 0.0;
        overrides.cross_traffic = no_cross;
        overrides.faulty_interface_drop = Probability::checked(0.0);
        overrides.bottleneck_buffer_packets = 256;
        // Exercise the per-state channel metrics through the obs layer so
        // they land in the BENCH json ("obs.bneck.fwd.channel.s*").
        overrides.obs_sample_interval = Duration::seconds(1);

        const auto result = scenario::run_inria_umd(plan, overrides);
        auto metrics = runner::scenario_metrics(result);

        const auto losses = result.trace.loss_indicators();
        const analysis::LossStats stats = analysis::loss_stats(losses);
        const analysis::LossGapEstimate gap = stats.loss_gap();
        metrics.push_back({"gap_consistent", gap.consistent ? 1.0 : 0.0});
        if (stats.losses > 0 && stats.losses < stats.probes) {
          metrics.push_back({"runs_z", analysis::loss_runs_test_z(losses)});
        }
        const analysis::FecPlan fec = analysis::design_fec(losses, 0.01);
        metrics.push_back({"fec_k", static_cast<double>(fec.k)});
        metrics.push_back({"fec_residual", fec.residual_loss});
        metrics.push_back({"fec_feasible", fec.feasible ? 1.0 : 0.0});
        return metrics;
      },
      options);

  TextTable table;
  table.row({"target plg", "ulp", "clp", "plg", "mean_burst", "runs z",
             "fec k", "residual", "probes"});
  for (const runner::RunResult& run : sweep.runs) {
    if (run.failed) {
      std::cerr << run.label << ": " << run.error << "\n";
      return 1;
    }
    const double* runs_z = run.metric("runs_z");
    table.row({});
    table.cell(format_double(run.param("target_plg"), 0))
        .cell(*run.metric("ulp"), 3)
        .cell(*run.metric("clp"), 3)
        .cell(*run.metric("plg"), 2)
        .cell(*run.metric("mean_burst"), 2)
        .cell(runs_z ? *runs_z : 0.0, 1)
        .cell(static_cast<std::int64_t>(*run.metric("fec_k")))
        .cell(*run.metric("fec_residual"), 4)
        .cell(static_cast<std::int64_t>(*run.metric("probes")));
  }
  std::cout << "Correlated loss: section-5 analyses across the plg >> 1 "
               "family\n(Gilbert-Elliott channel at the 128 kb/s "
               "bottleneck, target ulp = 0.08)\n\n";
  table.print(std::cout);
  std::cout << "\nexpected: measured plg/mean_burst track the target; the "
               "runs-test z-score\ngoes strongly negative (clustering) and "
               "the FEC repair depth k grows as\nthe loss gap widens — "
               "single-packet repair stops being adequate, the\nregime "
               "boundary the paper's section-5 advice depends on.\n";

  if (!cli.out_dir.empty()) {
    try {
      const std::string path = runner::write_sweep_artifacts(sweep, cli.out_dir);
      std::cout << "\nartifacts: " << path << "\n";
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}

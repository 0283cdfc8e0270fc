// Simulated NetDyn experiments from the command line — regenerate the
// data behind any of the paper's figures without writing code:
//
//   netdyn_sim [options]
//     --scenario <inria-umd | umd-pitt | inria-europe>   (default inria-umd)
//     --delta-ms <double>        probe interval          (default 50)
//     --minutes <double>         run length              (default 10)
//     --seed <uint64>            experiment seed         (default 1993)
//     --buffer <packets>         bottleneck buffer override (at most 100000)
//     --drop <prob>              faulty-interface drop override
//     --load <scale>             multiplier on the scenario's cross-traffic loads
//     --red                      RED at the bottleneck instead of drop-tail
//     --csv <path>               save the raw trace
//     --report                   print the full analysis report
//
// Example — Table 3's delta = 8 ms cell, trace saved for later analysis:
//   netdyn_sim --delta-ms 8 --csv delta8.csv
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/loss.h"
#include "analysis/report.h"
#include "analysis/stats.h"
#include "analysis/trace_io.h"
#include "scenario/scenarios.h"
#include "sim/link.h"
#include "util/parse_number.h"
#include "util/table.h"

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "netdyn_sim: " << message << " (see the header comment)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bolot;

  std::string scenario_name = "inria-umd";
  scenario::ProbePlan plan;
  scenario::ScenarioOverrides overrides;
  std::optional<double> load_scale;
  std::string csv_path;
  bool want_report = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--scenario") {
        scenario_name = next_value();
      } else if (arg == "--delta-ms") {
        plan.delta = Duration::millis(parse_f64(arg, next_value()));
      } else if (arg == "--minutes") {
        plan.duration = Duration::minutes(parse_f64(arg, next_value()));
      } else if (arg == "--seed") {
        plan.seed = parse_u64(arg, next_value());
      } else if (arg == "--buffer") {
        overrides.bottleneck_buffer_packets =
            parse_u64(arg, next_value(), sim::kMaxBufferPackets);
      } else if (arg == "--drop") {
        const double p = parse_f64(arg, next_value());
        if (!(p >= 0.0 && p <= 1.0)) {
          usage_error("--drop must be a probability in [0, 1]");
        }
        overrides.faulty_interface_drop = bolot::Probability::checked(p);
      } else if (arg == "--load") {
        load_scale = parse_f64(arg, next_value());
        if (!(*load_scale >= 0.0 && std::isfinite(*load_scale))) {
          usage_error("--load must be finite and >= 0");
        }
      } else if (arg == "--red") {
        overrides.bottleneck_red = sim::RedConfig{};
      } else if (arg == "--csv") {
        csv_path = next_value();
      } else if (arg == "--report") {
        want_report = true;
      } else {
        usage_error("unknown option " + arg);
      }
    } catch (const std::invalid_argument& e) {
      usage_error(e.what());
    }
  }
  if (plan.delta <= Duration::zero() || plan.duration <= Duration::zero()) {
    usage_error("delta and minutes must be positive");
  }

  // --load scales the chosen path's own mix, whatever the flag order.
  decltype(&scenario::run_inria_umd) run = nullptr;
  scenario::CrossTraffic cross;
  if (scenario_name == "inria-umd") {
    run = scenario::run_inria_umd;
    cross = scenario::kInriaUmdCrossTraffic;
  } else if (scenario_name == "umd-pitt") {
    run = scenario::run_umd_pitt;
    cross = scenario::kUmdPittCrossTraffic;
  } else if (scenario_name == "inria-europe") {
    run = scenario::run_inria_europe;
    cross = scenario::kInriaEuropeCrossTraffic;
  } else {
    usage_error("unknown scenario " + scenario_name);
  }
  if (load_scale) {
    cross.session_load *= *load_scale;
    cross.bulk_load *= *load_scale;
    cross.interactive_load *= *load_scale;
    overrides.cross_traffic = cross;
  }

  try {
    const scenario::ScenarioResult result = run(plan, overrides);

    std::cout << "scenario " << scenario_name << ", delta "
              << plan.delta.to_string() << ", " << result.trace.size()
              << " probes, " << result.events << " simulated events\n";
    const auto loss = analysis::loss_stats(result.trace);
    const auto rtts = result.trace.rtt_ms_received();
    TextTable table;
    table.row({"ulp", format_double(loss.ulp, 4)});
    table.row({"clp", format_double(loss.clp, 4)});
    table.row({"plg", format_double(loss.plg_from_clp, 2)});
    if (!rtts.empty()) {
      table.row({"min rtt (ms)",
                 format_double(analysis::summarize(rtts).min, 1)});
      table.row({"median rtt (ms)", format_double(analysis::median(rtts), 1)});
    }
    table.print(std::cout);

    if (want_report) {
      std::cout << "\n" << analysis::full_report(result.trace);
    }
    if (!csv_path.empty()) {
      analysis::save_trace_csv(csv_path, result.trace);
      std::cout << "trace saved to " << csv_path << "\n";
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}

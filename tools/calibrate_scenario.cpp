// The calibration harness behind DESIGN.md section 5: grid-search the
// INRIA->UMd scenario's free parameters against the paper's Table 3.
//
//   calibrate_scenario [--minutes <m>] [--quick]
//
// For each grid point, runs the six-delta loss sweep and scores the
// summed squared relative error of (ulp, clp) against the paper's values;
// prints the grid sorted by score and the best point.  --quick shrinks
// the grid and run length for a smoke run.  This is how the defaults in
// scenario/scenarios.{h,cpp} were chosen; rerun it after changing the
// traffic models.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/loss.h"
#include "scenario/scenarios.h"
#include "util/parse_number.h"
#include "util/table.h"

namespace {

using namespace bolot;

struct GridPoint {
  double session_load;
  double bulk_load;
  std::size_t buffer;
  double drop;
  double score = 0.0;
  std::vector<double> ulp;
  std::vector<double> clp;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "calibrate_scenario: " << message
            << " (see the header comment)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  double minutes = 10.0;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--minutes") {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      try {
        minutes = parse_f64(arg, argv[++i]);
      } catch (const std::invalid_argument& e) {
        usage_error(e.what());
      }
      if (!(minutes > 0.0)) usage_error("--minutes must be positive");
    } else {
      usage_error("unknown option " + arg);
    }
  }
  if (quick) minutes = std::min(minutes, 2.0);

  const double deltas_ms[] = {8, 20, 50, 100, 200, 500};
  const double paper_ulp[] = {0.23, 0.16, 0.12, 0.10, 0.11, 0.095};
  const double paper_clp[] = {0.60, 0.42, 0.27, 0.18, 0.18, 0.09};

  const std::vector<double> session_grid =
      quick ? std::vector<double>{0.25} : std::vector<double>{0.20, 0.25, 0.32};
  const std::vector<double> bulk_grid =
      quick ? std::vector<double>{0.25} : std::vector<double>{0.18, 0.25, 0.32};
  const std::vector<std::size_t> buffer_grid =
      quick ? std::vector<std::size_t>{14} : std::vector<std::size_t>{12, 14, 18};
  const std::vector<double> drop_grid =
      quick ? std::vector<double>{0.011}
            : std::vector<double>{0.008, 0.011, 0.014};

  std::vector<GridPoint> results;
  for (const double session : session_grid) {
    for (const double bulk : bulk_grid) {
      for (const std::size_t buffer : buffer_grid) {
        for (const double drop : drop_grid) {
          GridPoint point{session, bulk, buffer, drop, 0.0, {}, {}};
          for (int d = 0; d < 6; ++d) {
            scenario::ProbePlan plan;
            plan.delta = Duration::millis(deltas_ms[d]);
            plan.duration = Duration::minutes(minutes);
            scenario::ScenarioOverrides overrides;
            scenario::CrossTraffic cross;
            cross.session_load = session;
            cross.bulk_load = bulk;
            overrides.cross_traffic = cross;
            overrides.bottleneck_buffer_packets = buffer;
            overrides.faulty_interface_drop = Probability::checked(drop);
            const auto run = scenario::run_inria_umd(plan, overrides);
            const auto loss = analysis::loss_stats(run.trace);
            point.ulp.push_back(loss.ulp);
            point.clp.push_back(loss.clp);
            const double eu = (loss.ulp - paper_ulp[d]) / paper_ulp[d];
            const double ec = (loss.clp - paper_clp[d]) / paper_clp[d];
            point.score += eu * eu + ec * ec;
          }
          results.push_back(std::move(point));
          std::cout << "." << std::flush;
        }
      }
    }
  }
  std::cout << "\n\n";

  std::sort(results.begin(), results.end(),
            [](const GridPoint& a, const GridPoint& b) {
              return a.score < b.score;
            });

  TextTable table;
  table.row({"score", "session", "bulk", "K", "drop", "ulp@8..500"});
  const std::size_t show = std::min<std::size_t>(8, results.size());
  for (std::size_t i = 0; i < show; ++i) {
    const GridPoint& point = results[i];
    std::string ulps;
    for (const double u : point.ulp) {
      if (!ulps.empty()) ulps += " ";
      ulps += format_double(u, 2);
    }
    table.row({});
    table.cell(point.score, 3)
        .cell(point.session_load, 2)
        .cell(point.bulk_load, 2)
        .cell(static_cast<std::int64_t>(point.buffer))
        .cell(point.drop, 3)
        .cell(ulps);
  }
  table.print(std::cout);
  std::cout << "\npaper ulp: 0.23 0.16 0.12 0.10 0.11 ~0.10\n"
            << "best point should match the committed defaults "
               "(0.25/0.25/K14/0.011)\nwithin run-length noise.\n";
  return 0;
}

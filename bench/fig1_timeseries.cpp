// Reproduces Figure 1: the time series rtt_n vs n for 0 <= n <= 800 at
// delta = 50 ms on the INRIA->UMd path.  The paper's plot shows rtts
// between ~140 ms (the fixed delay) and ~700 ms with a large number of
// losses (9% in that experiment; lost probes have rtt_n = 0 and appear as
// gaps here).
//
// Observability flags (both leave the default output untouched):
//   --metrics-out <path>  attach the scenario's metrics registry + sampler
//                         (interval = delta) and write the snapshot and
//                         series as JSON (obs/metrics_io.h)
//   --trace <path>        record wall-clock scopes into a binary trace;
//                         convert with tools/trace2json.py (requires
//                         -DSIM_TRACE=ON)
#include <iostream>
#include <string>

#include "analysis/loss.h"
#include "analysis/stats.h"
#include "obs/metrics_io.h"
#include "obs/trace.h"
#include "scenario/scenarios.h"
#include "util/ascii_plot.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace bolot;

  std::string metrics_out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--metrics-out <path>] [--trace <path>]\n";
      return 2;
    }
  }
  if (!trace_out.empty() && !obs::kTraceEnabled) {
    std::cerr << "--trace requires a build with -DSIM_TRACE=ON "
                 "(TRACE_SCOPE compiles out otherwise)\n";
    return 2;
  }

  scenario::ProbePlan plan;
  plan.delta = Duration::millis(50);
  plan.duration = Duration::minutes(10);
  scenario::ScenarioOverrides overrides;
  if (!metrics_out.empty()) overrides.obs_sample_interval = plan.delta;
  if (!trace_out.empty()) obs::TraceRecorder::instance().start();
  const auto result = scenario::run_inria_umd(plan, overrides);
  if (!trace_out.empty()) {
    obs::TraceRecorder::instance().write(trace_out);
  }

  std::vector<double> rtts = result.trace.rtt_ms_with_losses();
  std::vector<double> window(rtts.begin(),
                             rtts.begin() + std::min<std::size_t>(801, rtts.size()));

  PlotOptions options;
  options.title = "Figure 1: rtt_n vs n (delta = 50 ms, INRIA -> UMd)";
  options.x_label = "packet number n (0..800)";
  options.y_label = "round trip time (ms)";
  options.width = 100;
  options.height = 24;
  options.y_min = 0.0;
  series_plot(std::cout, window, options);

  const analysis::LossStats loss = analysis::loss_stats(result.trace);
  const auto received = result.trace.rtt_ms_received();
  const analysis::Summary s = analysis::summarize(received);

  std::cout << "\n";
  TextTable table;
  table.row({"metric", "measured", "paper"});
  table.row({"loss probability", format_double(loss.ulp, 3), "0.09 (this run)"});
  table.row({"min rtt (ms)", format_double(s.min, 1), "~140"});
  table.row({"max rtt (ms)", format_double(s.max, 1), "~700 visible range"});
  table.print(std::cout);

  if (!metrics_out.empty()) {
    obs::write_metrics_json(metrics_out, result.metrics, result.series);
    std::cout << "\nWrote metrics to " << metrics_out << "\n";
  }
  if (!trace_out.empty()) {
    std::cout << "Wrote "
              << obs::TraceRecorder::instance().record_count()
              << " trace records to " << trace_out << "\n";
  }
  return 0;
}

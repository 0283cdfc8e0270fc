// Reproduces Figure 9: the distribution of w_{n+1} - w_n + delta at
// delta = 100 ms.  Same structure as Figure 8, but the paper notes the
// height of the leftmost (compression) peak relative to the others is
// much smaller: probe compression becomes less frequent as delta grows.
// This bench prints both the delta = 100 ms distribution and the ratio of
// compression-peak mass at delta = 20 vs delta = 100 to make that
// comparison explicit.
#include <iostream>

#include "analysis/lindley.h"
#include "scenario/scenarios.h"
#include "util/ascii_plot.h"
#include "util/table.h"

namespace {

bolot::analysis::WorkloadAnalysis run_one(double delta_ms, double max_ms) {
  using namespace bolot;
  scenario::ProbePlan plan;
  plan.delta = Duration::millis(delta_ms);
  plan.duration = Duration::minutes(10);
  const auto result = scenario::run_inria_umd(plan);

  analysis::WorkloadOptions options;
  options.bottleneck_bps = scenario::kInriaUmdBottleneck.bps();
  options.bin_ms = 2.0;
  options.max_ms = max_ms;
  return analysis::analyze_workload(result.trace, options);
}

// Mass of the compression region (g < 7 ms ~ P/mu + half a clock tick):
// measured as region mass rather than requiring a detected local maximum,
// because at delta = 100 ms the peak is too small to clear the detector
// threshold — which is exactly the paper's point.
double compression_peak_mass(const bolot::analysis::WorkloadAnalysis& wa) {
  const auto centers = wa.histogram.centers();
  const auto densities = wa.histogram.densities();
  double mass = 0.0;
  for (std::size_t i = 0; i < centers.size(); ++i) {
    if (centers[i] < 7.0) mass += densities[i];
  }
  return mass;
}

}  // namespace

int main() {
  using namespace bolot;

  const analysis::WorkloadAnalysis at100 = run_one(100.0, 170.0);

  PlotOptions plot;
  plot.title =
      "Figure 9: distribution of w_{n+1} - w_n + delta (delta = 100 ms)";
  plot.x_label = "w_{n+1} - w_n + delta (ms); heights are sample fractions";
  plot.width = 60;
  histogram_plot(std::cout, at100.histogram.centers(),
                 at100.histogram.densities(), plot);

  const analysis::WorkloadAnalysis at20 = run_one(20.0, 90.0);
  const double mass20 = compression_peak_mass(at20);
  const double mass100 = compression_peak_mass(at100);

  std::cout << "\n";
  TextTable table;
  table.row({"quantity", "measured", "paper"});
  table.row({"compression-peak mass, delta=20", format_double(mass20, 3),
             "tall (Fig. 8)"});
  table.row({"compression-peak mass, delta=100", format_double(mass100, 3),
             "much smaller (Fig. 9)"});
  table.row({"ratio 20/100",
             mass100 > 0 ? format_double(mass20 / mass100, 1) : "inf",
             "> 1: compression fades with delta"});
  table.print(std::cout);
  return 0;
}

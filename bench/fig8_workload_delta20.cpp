// Reproduces Figure 8: the distribution of w_{n+1} - w_n + delta at
// delta = 20 ms on the INRIA->UMd path, i.e. the per-interval Internet
// workload read off the probe rtts via eq. (6):
//     b_n = mu (w_{n+1} - w_n + delta) - P.
// The paper identifies four peaks:
//   1. at P/mu (~4.5 ms wire / 2 ms payload): probes draining back-to-back
//      behind a large cross packet (probe compression),
//   2. at delta (20 ms): intervals in which the queue stayed effectively
//      idle (w_{n+1} = w_n),
//   3. at ~35 ms: the first probe behind ONE cross packet of
//      b = 128 kb/s * 35 ms - 72 * 8 bits = 3904 bits ~ 488 bytes ("one
//      FTP packet"),
//   4. at ~67 ms: two FTP packets, and so on.
#include <iostream>

#include "analysis/lindley.h"
#include "scenario/scenarios.h"
#include "util/ascii_plot.h"
#include "util/table.h"

int main() {
  using namespace bolot;

  scenario::ProbePlan plan;
  plan.delta = Duration::millis(20);
  plan.duration = Duration::minutes(10);
  const auto result = scenario::run_inria_umd(plan);

  analysis::WorkloadOptions options;
  options.bottleneck_bps = scenario::kInriaUmdBottleneck.bps();
  options.bin_ms = 2.0;
  options.max_ms = 90.0;
  const analysis::WorkloadAnalysis workload =
      analysis::analyze_workload(result.trace, options);

  PlotOptions plot;
  plot.title =
      "Figure 8: distribution of w_{n+1} - w_n + delta (delta = 20 ms)";
  plot.x_label = "w_{n+1} - w_n + delta (ms); heights are sample fractions";
  plot.width = 60;
  histogram_plot(std::cout, workload.histogram.centers(),
                 workload.histogram.densities(), plot);

  std::cout << "\nDetected peaks (eq. 6 inversion with mu = 128 kb/s):\n";
  TextTable table;
  table.row({"position(ms)", "mass", "b_n(bits)", "b_n(bytes)",
             "interpretation"});
  for (const auto& peak : workload.peaks) {
    std::string what;
    if (peak.position_ms < 7.0) {
      what = "P/mu: probe compression";
    } else if (std::abs(peak.position_ms - 20.0) <= 3.0) {
      what = "delta: idle interval";
    } else if (peak.cross_packets) {
      what = format_double(*peak.cross_packets, 2) + " FTP packet(s)";
    } else {
      what = "-";
    }
    table.row({});
    table.cell(peak.position_ms, 1)
        .cell(peak.mass, 3)
        .cell(peak.workload_bits, 0)
        .cell(peak.workload_bits / 8.0, 0)
        .cell(what);
  }
  table.print(std::cout);
  std::cout << "\npaper: peaks at P/mu, at delta = 20 ms, at 35 ms (one "
               "488-byte FTP packet),\n       and at ~2 FTP packets; "
               "compression peak prominent at small delta.\n";
  return 0;
}

// Offline analysis of a saved probe trace:
//
//   netdyn_report <trace.csv> [mu_bps]
//
// Loads a CSV written by netdyn_probe (or analysis::save_trace_csv) and
// prints the full section-4/5 report.  Pass the bottleneck rate in bit/s
// (finite and positive) to force the eq.-6 inversion rate; otherwise the
// compression-peak estimate is used when available.
#include <cmath>
#include <iostream>
#include <stdexcept>

#include "analysis/report.h"
#include "analysis/trace_io.h"
#include "util/parse_number.h"

int main(int argc, char** argv) {
  using namespace bolot;
  const char* const usage = "usage: netdyn_report <trace.csv> [mu_bps]\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  analysis::ReportOptions options;
  if (argc >= 3) {
    double mu_bps = 0.0;
    try {
      mu_bps = parse_f64("mu_bps", argv[2]);
    } catch (const std::invalid_argument& e) {
      std::cerr << "netdyn_report: " << e.what() << "\n" << usage;
      return 2;
    }
    if (!(std::isfinite(mu_bps) && mu_bps > 0.0)) {
      std::cerr << "netdyn_report: mu_bps must be finite and positive\n"
                << usage;
      return 2;
    }
    options.bottleneck_bps = mu_bps;
  }
  try {
    const analysis::ProbeTrace trace = analysis::load_trace_csv(argv[1]);
    std::cout << analysis::full_report(trace, options);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}

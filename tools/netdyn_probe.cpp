// Standalone NetDyn prober (the paper's source host):
//
//   netdyn_probe <host> <port> [delta_ms] [count] [trace.csv]
//
// Sends `count` probes (default 1000) every `delta_ms` (default 50) to
// the echo server at host:port, prints the paper's section-4/5 analysis,
// and optionally saves the raw trace as CSV for offline re-analysis
// (reload with analysis::load_trace_csv).
#include <cstdint>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "analysis/lindley.h"
#include "analysis/loss.h"
#include "analysis/phase_plot.h"
#include "analysis/stats.h"
#include "analysis/trace_io.h"
#include "netdyn/prober.h"
#include "nettime/clock.h"
#include "util/parse_number.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace bolot;
  const char* const usage =
      "usage: netdyn_probe <host> <port> [delta_ms] [count] [trace.csv]\n";
  if (argc < 3) {
    std::cerr << usage;
    return 2;
  }
  const std::string host = argv[1];
  std::uint16_t port = 0;
  double delta_ms = 50.0;
  std::uint64_t count = 1000;
  try {
    port = static_cast<std::uint16_t>(
        parse_u64("port", argv[2], std::numeric_limits<std::uint16_t>::max()));
    if (argc >= 4) delta_ms = parse_f64("delta_ms", argv[3]);
    if (argc >= 5) count = parse_u64("count", argv[4]);
  } catch (const std::invalid_argument& e) {
    std::cerr << "netdyn_probe: " << e.what() << "\n" << usage;
    return 2;
  }

  try {
    SystemClock clock;
    netdyn::ProberConfig config;
    config.delta = Duration::millis(delta_ms);
    config.probe_count = count;
    config.drain = Duration::seconds(1);
    netdyn::Prober prober(clock, config);
    std::cout << "probing " << host << ":" << port << " with " << count
              << " probes every " << delta_ms << " ms...\n";
    const auto trace = prober.run(netdyn::make_endpoint(host, port));

    const auto rtts = trace.rtt_ms_received();
    TextTable table;
    table.row({"metric", "value"});
    table.row({"received", std::to_string(trace.received_count()) + "/" +
                               std::to_string(trace.size())});
    const auto loss = analysis::loss_stats(trace);
    table.row({"ulp", format_double(loss.ulp, 4)});
    table.row({"clp", format_double(loss.clp, 4)});
    table.row({"plg", format_double(loss.plg_from_clp, 2)});
    if (!rtts.empty()) {
      const auto summary = analysis::summarize(rtts);
      table.row({"min rtt (ms)", format_double(summary.min, 3)});
      table.row({"median rtt (ms)", format_double(analysis::median(rtts), 3)});
      table.row({"p95 rtt (ms)", format_double(analysis::quantile(rtts, 0.95), 3)});
      table.row({"max rtt (ms)", format_double(summary.max, 3)});
      try {
        const auto mu = analysis::estimate_bottleneck(trace);
        if (mu.cluster_fraction >= 0.02) {
          table.row({"bottleneck mu-hat (kb/s)",
                     format_double(mu.mu_bps / 1e3, 1)});
        }
      } catch (const std::exception&) {
        // No compression cluster at this delta: nothing to report.
      }
    }
    table.print(std::cout);

    if (argc >= 6) {
      analysis::save_trace_csv(argv[5], trace);
      std::cout << "trace saved to " << argv[5] << "\n";
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}

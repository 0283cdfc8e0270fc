// Ground truth for the paper's estimator: only a simulator can check
// eq. (6) against the actual bottleneck queue.
//
// We probe a single-bottleneck path while an obs::Sampler records the true
// queue on a uniform time grid, then compare:
//   * the probe-inferred waiting time w-hat_n = rtt_n - D - P/mu against
//     the monitored backlog at the probe's arrival;
//   * the eq.-6 workload estimate against the cross traffic actually
//     offered per interval.
//
// With --metrics-out <path>, the bottleneck's metric snapshot and the
// sampled series are also written as JSON (see obs/metrics_io.h).
#include <exception>
#include <iostream>
#include <string>

#include "analysis/lindley.h"
#include "analysis/stats.h"
#include "obs/metrics_io.h"
#include "obs/sampler.h"
#include "sim/traffic.h"
#include "sim/udp_echo.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace bolot;

  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--metrics-out <path>]\n";
      return 2;
    }
  }

  sim::Simulator simulator;
  sim::Network net(simulator, 17);
  const auto src = net.add_node("src");
  const auto left = net.add_node("left");
  const auto right = net.add_node("right");
  const auto echo_node = net.add_node("echo");
  sim::LinkConfig fast;
  fast.rate = Bandwidth::bps(10e6);
  fast.propagation = Duration::millis(1);
  fast.buffer_packets = 1000;
  net.add_duplex_link(src, left, fast);
  net.add_duplex_link(right, echo_node, fast);
  sim::LinkConfig bottleneck_config;
  bottleneck_config.name = "bottleneck";
  bottleneck_config.rate = Bandwidth::bps(128e3);
  bottleneck_config.propagation = Duration::millis(30);
  bottleneck_config.buffer_packets = 20;
  sim::Link& bottleneck = net.add_duplex_link(left, right, bottleneck_config);

  const auto cross_src = net.add_node("cross-src");
  const auto cross_dst = net.add_node("cross-dst");
  net.add_duplex_link(cross_src, left, fast);
  net.add_duplex_link(right, cross_dst, fast);
  sim::FtpSessionConfig session;
  session.bottleneck = Bandwidth::bps(128e3);
  session.mean_session = Duration::seconds(6);
  session.mean_idle = Duration::seconds(9);
  sim::FtpSessionSource cross(simulator, net, cross_src, cross_dst, 1,
                              sim::PacketKind::kBulk, Rng(3), session);

  sim::EchoHost echo(simulator, net, echo_node);
  sim::ProbeSourceConfig probe_config;
  probe_config.delta = Duration::millis(20);
  probe_config.probe_count = 30000;  // 10 minutes
  sim::UdpEchoSource probes(simulator, net, src, echo_node, probe_config);

  // Metrics: the bottleneck publishes its standard counters/gauges so the
  // end-of-run snapshot lands in --metrics-out.
  obs::MetricsRegistry registry;
  bottleneck.publish_metrics(registry);

  // Sample the true backlog (as milliseconds of work) at exactly the
  // probe send cadence, phase-locked to arrivals at the bottleneck
  // (send + access link latency).  The run records ~33k samples; the
  // budget keeps the series on the 20 ms grid (no decimation), one sample
  // per grid point.
  obs::Sampler sampler(simulator, Duration::millis(20), 65536);
  const std::size_t backlog_series =
      obs::watch_backlog_work_ms(sampler, bottleneck);

  net.compute_routes();
  cross.start(Duration::zero());
  const Duration start = Duration::seconds(2);
  probes.start(start);
  // A 72-B probe takes 0.0576 ms on the access link + 1 ms propagation.
  sampler.start(start + Duration::micros(1058));
  simulator.run_until(Duration::minutes(11));
  sampler.stop();

  const auto trace = probes.trace();
  // Probe-inferred waits: w-hat = rtt - D - 2 * P/mu (service on both
  // directions of the bottleneck; the return direction is idle so only
  // the forward wait varies).
  const double fixed_ms = 2.0 * (0.0576 + 1.0) * 2.0 + 2.0 * 30.0;  // ~ D
  const double service_ms = 4.5;
  std::vector<double> inferred, truth;
  const auto& samples = sampler.series(backlog_series).values();
  for (std::size_t n = 0; n < trace.records.size() && n < samples.size();
       ++n) {
    if (!trace.records[n].received) continue;
    const double w_hat =
        trace.records[n].rtt.millis() - fixed_ms - 2.0 * service_ms;
    inferred.push_back(std::max(0.0, w_hat));
    truth.push_back(samples[n]);
  }

  const double correlation = analysis::pearson(inferred, truth);
  const analysis::Summary inferred_summary = analysis::summarize(inferred);
  const analysis::Summary truth_summary = analysis::summarize(truth);

  std::cout << "Probe-inferred vs monitored bottleneck backlog "
               "(delta = 20 ms, 10 minutes)\n\n";
  TextTable table;
  table.row({"quantity", "probe-inferred", "queue monitor"});
  table.row({"mean backlog (ms of work)",
             format_double(inferred_summary.mean, 2),
             format_double(truth_summary.mean, 2)});
  table.row({"p95 backlog (ms of work)",
             format_double(analysis::quantile(inferred, 0.95), 2),
             format_double(analysis::quantile(truth, 0.95), 2)});
  table.row({"max backlog (ms of work)",
             format_double(inferred_summary.max, 2),
             format_double(truth_summary.max, 2)});
  table.row({"correlation", format_double(correlation, 3), "-"});
  table.print(std::cout);
  std::cout << "\nA correlation near 1 validates the paper's premise: "
               "edge-measured rtts\ntrack the interior queue sample for "
               "sample, so eq.-6 inversion reads real\nqueue dynamics, not "
               "an artifact.\n";

  if (!metrics_out.empty()) {
    try {
      obs::write_metrics_json(metrics_out, registry.snapshot(simulator.now()),
                              sampler.snapshot());
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
    std::cout << "\nWrote metrics to " << metrics_out << "\n";
  }
  return correlation > 0.7 ? 0 : 1;
}

// Closed-loop vs open-loop cross traffic.
//
// The paper's "Internet stream" was mostly TCP, which the calibrated
// scenario approximates with open-loop generators.  This ablation rebuilds
// the INRIA->UMd bottleneck with real TCP-Tahoe transfers as cross traffic
// and compares what the probes measure.  Expected differences (the
// refs-[28,29] dynamics): TCP's ack clock keeps the bottleneck busy
// without standing overflow, its window cuts after drops produce
// characteristic delay sawtooths, and probe loss is lower at equal
// utilization because the sources *react* to congestion.
#include <cstdint>
#include <iostream>

#include "analysis/loss.h"
#include "analysis/phase_plot.h"
#include "analysis/stats.h"
#include "scenario/scenarios.h"
#include "sim/tcp.h"
#include "sim/traffic.h"
#include "sim/udp_echo.h"
#include "util/table.h"

namespace {

using namespace bolot;

struct RunResult {
  analysis::LossStats loss;
  analysis::PhaseAnalysis phase;
  double utilization = 0.0;
  double mean_rtt_ms = 0.0;
  std::string note;
};

/// Probe across a 128 kb/s bottleneck loaded by `tcp_flows` greedy TCP
/// transfers (closed-loop) for `minutes` simulated minutes.
RunResult run_tcp_loaded(int tcp_flows, double minutes) {
  sim::Simulator simulator;
  sim::Network net(simulator, 77);

  const auto probe_src = net.add_node("probe-src");
  const auto left = net.add_node("left-router");
  const auto right = net.add_node("right-router");
  const auto echo_node = net.add_node("echo");

  sim::LinkConfig fast;
  fast.rate = Bandwidth::bps(10e6);
  fast.propagation = Duration::millis(2);
  fast.buffer_packets = 500;
  net.add_duplex_link(probe_src, left, fast);
  net.add_duplex_link(right, echo_node, fast);

  sim::LinkConfig bottleneck;
  bottleneck.rate = Bandwidth::bps(128e3);
  bottleneck.propagation = Duration::millis(52);
  bottleneck.buffer_packets = 14;
  const sim::Link& bottleneck_link =
      net.add_duplex_link(left, right, bottleneck);

  // TCP hosts hang off the bottleneck routers.
  std::vector<std::unique_ptr<sim::TcpSource>> sources;
  std::vector<std::unique_ptr<sim::TcpSink>> sinks;
  Rng rng(7);
  for (int i = 0; i < tcp_flows; ++i) {
    const auto tcp_src =
        net.add_node("ftp-src-" + std::to_string(i));
    const auto tcp_dst =
        net.add_node("ftp-dst-" + std::to_string(i));
    net.add_duplex_link(tcp_src, left, fast);
    net.add_duplex_link(right, tcp_dst, fast);
    sinks.push_back(std::make_unique<sim::TcpSink>(simulator, net, tcp_dst));
    sim::TcpConfig config;
    config.mean_file_packets = 60.0;  // ~30 KB files
    config.mean_idle = Duration::seconds(4);
    sources.push_back(std::make_unique<sim::TcpSource>(
        simulator, net, tcp_src, tcp_dst, static_cast<std::uint32_t>(i + 1),
        rng.split(), config));
  }

  sim::EchoHost echo(simulator, net, echo_node);
  sim::ProbeSourceConfig probe_config;
  probe_config.delta = Duration::millis(50);
  probe_config.probe_count = static_cast<std::uint64_t>(minutes * 1200.0);
  sim::UdpEchoSource probes(simulator, net, probe_src, echo_node,
                            probe_config);

  net.compute_routes();
  for (auto& source : sources) {
    source->start(Duration::millis(rng.uniform(0.0, 2000.0)));
  }
  const Duration warmup = Duration::seconds(5);
  probes.start(warmup);
  const Duration end =
      warmup + Duration::minutes(minutes) + Duration::seconds(2);
  simulator.run_until(end);

  RunResult result;
  const auto trace = probes.trace();
  result.loss = analysis::loss_stats(trace);
  result.phase = analysis::analyze_phase_plot(trace);
  result.utilization = bottleneck_link.stats().utilization(end);
  result.mean_rtt_ms = analysis::summarize(trace.rtt_ms_received()).mean;
  std::uint64_t retransmissions = 0;
  for (const auto& source : sources) {
    retransmissions += source->stats().retransmissions;
  }
  result.note = std::to_string(tcp_flows) + " TCP flows, " +
                std::to_string(retransmissions) + " rtx";
  return result;
}

RunResult run_open_loop(double minutes) {
  scenario::ProbePlan plan;
  plan.delta = Duration::millis(50);
  plan.duration = Duration::minutes(minutes);
  scenario::ScenarioOverrides overrides;
  overrides.faulty_interface_drop = Probability::checked(0.0);  // isolate congestion effects
  const auto run = scenario::run_inria_umd(plan, overrides);
  RunResult result;
  result.loss = analysis::loss_stats(run.trace);
  result.phase = analysis::analyze_phase_plot(run.trace);
  result.utilization = run.bottleneck_forward.utilization(run.simulated);
  result.mean_rtt_ms = analysis::summarize(run.trace.rtt_ms_received()).mean;
  result.note = "calibrated open-loop mix";
  return result;
}

}  // namespace

int main() {
  const double minutes = 10.0;

  std::cout << "Probe measurements under open-loop vs TCP (closed-loop) "
               "cross traffic\n(128 kb/s bottleneck, delta = 50 ms, "
            << format_double(minutes, 0)
            << "-minute runs; faulty-card drops off)\n\n";
  TextTable table;
  table.row({"cross traffic", "util", "ulp", "clp", "plg", "mean rtt",
             "compr", "notes"});
  const auto add = [&table](const char* label, const RunResult& r) {
    table.row({});
    table.cell(label)
        .cell(r.utilization, 2)
        .cell(r.loss.ulp, 3)
        .cell(r.loss.clp, 3)
        .cell(r.loss.plg_from_clp, 2)
        .cell(r.mean_rtt_ms, 1)
        .cell(r.phase.compression_fraction, 3)
        .cell(r.note);
  };
  add("open-loop", run_open_loop(minutes));
  add("tcp x1", run_tcp_loaded(1, minutes));
  add("tcp x2", run_tcp_loaded(2, minutes));
  add("tcp x4", run_tcp_loaded(4, minutes));
  table.print(std::cout);
  std::cout << "\nexpected: TCP fills the link (high utilization) while its "
               "congestion control\nkeeps probe loss below the open-loop mix "
               "at comparable load; compression\nremains visible because "
               "probes still queue behind data windows.\n";
  return 0;
}

// Low-frequency load components (section 1's discussion of Mukherjee's
// result: spectral analysis of average delays shows a clear diurnal
// cycle, "a base congestion level which changes slowly with time").
//
// We drive the bottleneck with sinusoidally modulated cross traffic
// (period scaled down from a day to minutes so a 40-minute run covers
// several cycles), probe it, average the rtts over windows — exactly how
// Merit/Mukherjee-style statistics are formed — and recover the cycle
// from the periodogram.
#include <cstdint>
#include <iostream>

#include "analysis/spectral.h"
#include "analysis/stats.h"
#include "sim/traffic.h"
#include "sim/udp_echo.h"
#include "util/table.h"

int main() {
  using namespace bolot;

  sim::Simulator simulator;
  sim::Network net(simulator, 11);
  const auto probe_src = net.add_node("src");
  const auto left = net.add_node("left");
  const auto right = net.add_node("right");
  const auto echo_node = net.add_node("echo");

  sim::LinkConfig fast;
  fast.rate = Bandwidth::bps(10e6);
  fast.propagation = Duration::millis(1);
  fast.buffer_packets = 500;
  net.add_duplex_link(probe_src, left, fast);
  net.add_duplex_link(right, echo_node, fast);
  sim::LinkConfig bottleneck;
  bottleneck.rate = Bandwidth::bps(128e3);
  bottleneck.propagation = Duration::millis(52);
  bottleneck.buffer_packets = 20;
  net.add_duplex_link(left, right, bottleneck);

  const auto cross_src = net.add_node("cross-src");
  const auto cross_dst = net.add_node("cross-dst");
  net.add_duplex_link(cross_src, left, fast);
  net.add_duplex_link(right, cross_dst, fast);

  // "Diurnal" load: mean 60% of the bottleneck, swinging +-55% of that
  // with a 4-minute period (a scaled-down day).
  const Duration cycle = Duration::minutes(4);
  const double run_minutes = 40.0;
  sim::ModulatedPoissonConfig cross_config;
  cross_config.packet = ByteSize::bytes(512);
  cross_config.mean_interarrival =
      Duration::seconds(512.0 * 8.0 / (0.6 * 128e3));
  cross_config.relative_amplitude = 0.55;
  cross_config.period = cycle;
  sim::ModulatedPoissonSource cross(simulator, net, cross_src, cross_dst, 1,
                                    sim::PacketKind::kBulk, Rng(3),
                                    cross_config);

  sim::EchoHost echo(simulator, net, echo_node);
  sim::ProbeSourceConfig probe_config;
  probe_config.delta = Duration::millis(100);
  probe_config.probe_count =
      static_cast<std::uint64_t>(run_minutes * 600.0);  // 10 probes/s
  sim::UdpEchoSource probes(simulator, net, probe_src, echo_node,
                            probe_config);

  net.compute_routes();
  cross.start(Duration::zero());
  probes.start(Duration::seconds(2));
  simulator.run_until(Duration::minutes(run_minutes + 1.0));

  // Window the rtts into 5-second averages (the Merit-statistics view).
  const auto trace = probes.trace();
  const std::size_t per_window = 50;  // 50 probes * 100 ms = 5 s
  std::vector<double> window_means;
  double sum = 0.0;
  std::size_t count = 0;
  std::size_t index = 0;
  for (const auto& record : trace.records) {
    if (record.received) {
      sum += record.rtt.millis();
      ++count;
    }
    if (++index % per_window == 0) {
      window_means.push_back(count > 0 ? sum / static_cast<double>(count)
                                       : 0.0);
      sum = 0.0;
      count = 0;
    }
  }

  const double f = analysis::dominant_frequency(window_means);
  const double detected_period_s = 5.0 / f;  // samples are 5 s apart

  std::cout << "Low-frequency component recovery "
               "(modulated cross traffic, "
            << format_double(run_minutes, 0) << "-minute probe run)\n\n";
  TextTable table;
  table.row({"quantity", "value"});
  table.row({"configured load cycle", format_double(cycle.seconds(), 0) + " s"});
  table.row({"windowed-mean samples", std::to_string(window_means.size())});
  table.row({"dominant spectral period",
             format_double(detected_period_s, 0) + " s"});
  table.row({"relative error",
             format_double(std::abs(detected_period_s - cycle.seconds()) /
                               cycle.seconds(),
                           3)});
  table.print(std::cout);
  std::cout << "\nA clear spectral peak at the configured cycle reproduces "
               "Mukherjee's method:\nslow load cycles are visible in "
               "windowed probe delays even when individual\nrtts are "
               "dominated by fast queueing noise.\n";
  return detected_period_s > 0.5 * cycle.seconds() &&
                 detected_period_s < 2.0 * cycle.seconds()
             ? 0
             : 1;
}

// Epilogue: is 1992-style traffic self-similar?
//
// The paper studies "the structure of the Internet load over different
// time scales"; within a year, Leland, Taqqu, Willinger & Wilson showed
// measured Ethernet load to be self-similar (H ~ 0.8), and Willinger's
// construction explained why: superposed ON/OFF sources with heavy-tailed
// periods.  This bench runs the paper's probe methodology against both
// worlds — exponential ON/OFF cross traffic (Markovian, H ~ 0.5) and
// Pareto ON/OFF cross traffic (heavy-tailed, H -> 1) at the same average
// load — and estimates H from the probe-observed load, showing that the
// NetDyn methodology could have detected self-similarity.
#include <iostream>

#include "analysis/selfsimilar.h"
#include "analysis/stats.h"
#include "sim/network.h"
#include "sim/traffic.h"
#include "util/table.h"

namespace {

using namespace bolot;

struct HurstResult {
  analysis::HurstEstimate variance_time;
  analysis::HurstEstimate rescaled_range;
};

HurstResult run(double pareto_shape, double minutes) {
  sim::Simulator simulator;
  sim::Network net(simulator, 83);
  const auto left = net.add_node("left");
  const auto right = net.add_node("right");
  // A fast, deep link: deliveries track arrivals, so the delivery stream
  // is the aggregate arrival process itself (no queue smoothing).
  sim::LinkConfig bottleneck_config;
  bottleneck_config.name = "aggregate";
  bottleneck_config.rate = Bandwidth::bps(100e6);
  bottleneck_config.propagation = Duration::millis(1);
  bottleneck_config.buffer_packets = 100000;
  sim::Link& bottleneck = net.add_duplex_link(left, right, bottleneck_config);

  // 16 ON/OFF sources, each sending 512 B every 10 ms while on (410 kb/s)
  // and on a quarter of the time: ~0.1% of the link each, ~1.6% (about
  // 1.6 Mb/s) in aggregate.
  std::vector<std::unique_ptr<sim::TrafficSource>> sources;
  Rng rng(89);
  std::vector<sim::NodeId> hosts;
  for (int i = 0; i < 16; ++i) {
    const auto host = net.add_node("host-" + std::to_string(i));
    sim::LinkConfig access;
    access.rate = Bandwidth::bps(10e6);
    access.propagation = Duration::micros(100);
    access.buffer_packets = 2000;
    net.add_duplex_link(host, left, access);
    sim::OnOffConfig config;
    config.mean_on = Duration::millis(300);
    config.mean_off = Duration::millis(900);
    config.on_interval = Duration::millis(10);
    config.packet = ByteSize::bytes(512);
    config.pareto_shape = pareto_shape;
    sources.push_back(std::make_unique<sim::OnOffSource>(
        simulator, net, host, right, static_cast<std::uint32_t>(i + 1),
        sim::PacketKind::kBulk, rng.split(), config));
  }
  net.compute_routes();
  for (auto& source : sources) {
    source->start(Duration::millis(rng.uniform(0.0, 500.0)));
  }

  // Count every packet the link sees (about 1 M per run) into 100 ms
  // windows — the aggregate load series of Leland et al.  A delivery
  // counts when it arrives and a drop, should the buffer ever fill, when
  // it falls: both are offered load.
  constexpr double kWindowMs = 100.0;
  std::vector<double> counts(
      static_cast<std::size_t>(minutes * 60.0 * 1000.0 / kWindowMs), 0.0);
  const auto count = [&counts](SimTime at) {
    const auto bucket = static_cast<std::size_t>(at.millis() / kWindowMs);
    if (bucket < counts.size()) counts[bucket] += 1.0;
  };
  bottleneck.set_delivery_hook(
      [&count](const sim::Packet&, SimTime at) { count(at); });
  bottleneck.set_drop_hook([&count, &simulator](const sim::Packet&,
                                                sim::DropCause) {
    count(simulator.now());
  });
  simulator.run_until(Duration::minutes(minutes));
  // Drop warmup and tail windows.
  const std::vector<double> series(counts.begin() + 50, counts.end() - 50);

  HurstResult result;
  result.variance_time = analysis::hurst_variance_time(series);
  result.rescaled_range = analysis::hurst_rescaled_range(series);
  return result;
}

}  // namespace

int main() {
  const double minutes = 42.0;

  std::cout << "Self-similarity of aggregate load: 16 ON/OFF sources, same "
               "mean load,\nexponential vs Pareto(1.2) period lengths ("
            << format_double(minutes - 2.0, 0) << "-minute runs)\n\n";
  const HurstResult markovian = run(0.0, minutes);
  const HurstResult heavy = run(1.2, minutes);

  TextTable table;
  table.row({"period distribution", "H (variance-time)", "H (R/S)"});
  table.row({});
  table.cell("exponential (Markovian)")
      .cell(markovian.variance_time.hurst, 2)
      .cell(markovian.rescaled_range.hurst, 2);
  table.row({});
  table.cell("Pareto shape 1.2 (heavy-tailed)")
      .cell(heavy.variance_time.hurst, 2)
      .cell(heavy.rescaled_range.hurst, 2);
  table.print(std::cout);
  std::cout << "\nexpected: H ~ 0.5-0.6 for exponential periods, H ~ 0.8+ "
               "for heavy tails —\nthe Leland/Willinger result, observable "
               "with the paper's own measurement\nmachinery one year early."
               "\n";
  return (heavy.variance_time.hurst > markovian.variance_time.hurst + 0.1)
             ? 0
             : 1;
}

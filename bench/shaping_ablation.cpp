// Traffic shaping ablation: does smoothing the cross traffic de-burst the
// probe loss process?
//
// Section 3 ties the paper's delay models to predictive/rate-based
// control (ref [16]); a token-bucket shaper is the simplest such control.
// The same burst workload (Poisson bursts of 12 x 512-B packets, ~64% of
// the bottleneck) is offered twice: once straight into the network, once
// through a token bucket at 70% of the bottleneck rate.  The probe stream
// then measures what changed: with bursts intact, losses cluster
// (clp >> ulp); shaped, the queue never sees a burst and losses fade
// toward the random floor.
#include <iostream>

#include "analysis/loss.h"
#include "analysis/stats.h"
#include "sim/shaper.h"
#include "sim/udp_echo.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace bolot;

struct RunOutcome {
  analysis::LossStats loss;
  double p95_rtt_ms = 0.0;
  std::uint64_t shaper_drops = 0;
};

RunOutcome run(bool shaped) {
  sim::Simulator simulator;
  sim::Network net(simulator, 67);
  const auto src = net.add_node("src");
  const auto left = net.add_node("left");
  const auto right = net.add_node("right");
  const auto echo_node = net.add_node("echo");
  sim::LinkConfig fast;
  fast.rate = Bandwidth::bps(10e6);
  fast.propagation = Duration::millis(2);
  fast.buffer_packets = 500;
  net.add_duplex_link(src, left, fast);
  net.add_duplex_link(right, echo_node, fast);
  sim::LinkConfig bottleneck;
  bottleneck.rate = Bandwidth::bps(128e3);
  bottleneck.propagation = Duration::millis(52);
  bottleneck.buffer_packets = 14;
  net.add_duplex_link(left, right, bottleneck);

  const auto cross_src = net.add_node("cross-src");
  const auto cross_dst = net.add_node("cross-dst");
  net.add_duplex_link(cross_src, left, fast);
  net.add_duplex_link(right, cross_dst, fast);
  net.compute_routes();

  // The burst workload, generated identically in both runs.
  sim::ShaperConfig shaper_config;
  shaper_config.rate = Bandwidth::bps(0.70 * 128e3);
  shaper_config.bucket = ByteSize::bytes(2 * 512);
  shaper_config.queue_packets = 4096;
  sim::TokenBucketShaper shaper(simulator, net, shaper_config);

  Rng rng(71);
  std::uint64_t next_id = 0;
  std::function<void()> schedule_burst = [&] {
    const auto packets = rng.geometric(1.0 / 12.0);
    for (std::uint64_t i = 0; i < packets; ++i) {
      sim::Packet p;
      p.id = next_id++;
      p.kind = sim::PacketKind::kBulk;
      p.flow = 1;
      p.size_bytes = 512;
      p.src = cross_src;
      p.dst = cross_dst;
      if (shaped) {
        shaper.offer(std::move(p));
      } else {
        net.send(std::move(p));
      }
    }
    // Mean burst 12 x 4096 bits at ~64% of 128 kb/s -> one burst / 600 ms.
    simulator.schedule_in(rng.exponential_time(Duration::millis(600)),
                          schedule_burst);
  };
  simulator.schedule_at(Duration::millis(rng.uniform(0.0, 100.0)),
                        schedule_burst);

  sim::EchoHost echo(simulator, net, echo_node);
  sim::ProbeSourceConfig probe_config;
  probe_config.delta = Duration::millis(50);
  probe_config.probe_count = 12000;
  sim::UdpEchoSource probes(simulator, net, src, echo_node, probe_config);
  probes.start(Duration::seconds(5));
  simulator.run_until(Duration::minutes(11));

  RunOutcome outcome;
  outcome.loss = analysis::loss_stats(probes.trace());
  const auto rtts = probes.trace().rtt_ms_received();
  outcome.p95_rtt_ms = analysis::quantile(rtts, 0.95);
  outcome.shaper_drops = shaper.dropped();
  return outcome;
}

}  // namespace

int main() {
  std::cout << "Token-bucket shaping of bursty cross traffic "
               "(identical workload, 10-minute probe runs)\n\n";
  const RunOutcome raw = run(false);
  const RunOutcome shaped = run(true);
  TextTable table;
  table.row({"cross traffic", "ulp", "clp", "plg", "p95 rtt(ms)",
             "shaper drops"});
  table.row({});
  table.cell("raw bursts")
      .cell(raw.loss.ulp, 3)
      .cell(raw.loss.clp, 3)
      .cell(raw.loss.plg_from_clp, 2)
      .cell(raw.p95_rtt_ms, 1)
      .cell(static_cast<std::int64_t>(raw.shaper_drops));
  table.row({});
  table.cell("token-bucket shaped")
      .cell(shaped.loss.ulp, 3)
      .cell(shaped.loss.clp, 3)
      .cell(shaped.loss.plg_from_clp, 2)
      .cell(shaped.p95_rtt_ms, 1)
      .cell(static_cast<std::int64_t>(shaped.shaper_drops));
  table.print(std::cout);
  std::cout << "\nexpected: shaping cuts probe loss and its burstiness "
               "(clp -> ulp, plg -> 1)\nand shortens the delay tail — the "
               "queue absorbs a paced stream instead of\n12-packet "
               "slugs.\n";
  return 0;
}

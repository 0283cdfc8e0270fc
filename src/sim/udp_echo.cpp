#include "sim/udp_echo.h"

#include <stdexcept>
#include <utility>

#include "nettime/clock.h"
#include "obs/metrics.h"

namespace bolot::sim {

namespace {

/// Seed of the Rng an interval_sampler draws from.
constexpr std::uint64_t kIntervalSeed = 2024;

/// Flow identifier every probe carries.
constexpr std::uint32_t kProbeFlow = 0xFFFF;

}  // namespace

EchoHost::EchoHost(Simulator& sim, Network& net, NodeId node)
    : sim_(sim), net_(net), node_(node) {
  net_.set_receiver(node_, [this](Packet&& p) { on_packet(std::move(p)); });
}

void EchoHost::on_packet(Packet&& p) {
  if (p.kind != PacketKind::kProbe || !p.has_probe() || p.probe().echoed) {
    return;  // cross traffic terminating here, or a stray echoed probe
  }
  p.probe().echoed = true;
  p.probe().echo_ts = sim_.now();
  std::swap(p.src, p.dst);
  net_.send(std::move(p));
}

UdpEchoSource::UdpEchoSource(Simulator& sim, Network& net, NodeId source,
                             NodeId echo, ProbeSourceConfig config)
    : sim_(sim),
      net_(net),
      source_(source),
      echo_(echo),
      config_(config),
      interval_rng_(kIntervalSeed) {
  if (config_.delta <= Duration::zero()) {
    throw std::invalid_argument("UdpEchoSource: delta must be positive");
  }
  if (config_.probe_wire <= ByteSize::zero()) {
    throw std::invalid_argument("UdpEchoSource: probe size must be positive");
  }
  if (config_.clock_tick && *config_.clock_tick <= Duration::zero()) {
    throw std::invalid_argument("UdpEchoSource: clock_tick must be positive");
  }
  trace_.delta = config_.delta;
  trace_.probe_wire_bytes = config_.probe_wire.count();
  trace_.clock_tick = config_.clock_tick.value_or(Duration::zero());
  trace_.records.reserve(config_.probe_count);
  net_.set_receiver(source_,
                    [this](Packet&& p) { on_packet(std::move(p)); });
}

Duration UdpEchoSource::stamp() const {
  const Duration now = sim_.now();
  if (config_.clock_tick) {
    return quantize(now, *config_.clock_tick);
  }
  return now;
}

void UdpEchoSource::start(SimTime at) { sim_.schedule_at(at, [this] { send_next(); }); }

void UdpEchoSource::send_next() {
  if (next_seq_ >= config_.probe_count) return;

  analysis::ProbeRecord record;
  record.seq = next_seq_;
  record.send_time = stamp();
  trace_.records.push_back(record);

  Packet p;
  p.id = (static_cast<std::uint64_t>(kProbeFlow) << 40) + next_seq_;
  p.kind = PacketKind::kProbe;
  p.flow = kProbeFlow;
  p.size_bytes = config_.probe_wire.count();
  p.src = source_;
  p.dst = echo_;
  p.set_probe({next_seq_, record.send_time, Duration::zero(), false});
  ++next_seq_;
  net_.send(std::move(p));

  const Duration next_gap = config_.interval_sampler
                                ? config_.interval_sampler(interval_rng_)
                                : config_.delta;
  // send_next() only runs from its own event; re-arm it in place.
  sim_.rearm_in(next_gap);
}

void UdpEchoSource::on_packet(Packet&& p) {
  if (p.kind != PacketKind::kProbe || !p.has_probe() || !p.probe().echoed) {
    return;  // cross traffic sunk at the source node
  }
  const std::uint64_t seq = p.probe().seq;
  if (seq >= trace_.records.size()) {
    throw std::logic_error("UdpEchoSource: echo for a probe never sent");
  }
  auto& record = trace_.records[seq];
  record.received = true;
  record.rtt = stamp() - record.send_time;
  record.echo_time = p.probe().echo_ts;
  last_rtt_ms_ = record.rtt.millis();
  ++received_;
}

analysis::ProbeTrace UdpEchoSource::trace() const { return trace_; }

analysis::ProbeTrace UdpEchoSource::take_trace() {
  analysis::ProbeTrace out = std::move(trace_);
  trace_.records.clear();
  return out;
}

void UdpEchoSource::publish_metrics(obs::MetricsRegistry& registry) const {
  registry.probe_counter("probe.sent",
                         [this] { return double(next_seq_); });
  registry.probe_counter("probe.received",
                         [this] { return double(received_); });
  registry.probe_gauge("probe.last_rtt_ms",
                       [this] { return last_rtt_ms_; });
}

}  // namespace bolot::sim

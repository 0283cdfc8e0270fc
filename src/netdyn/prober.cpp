#include "netdyn/prober.h"

#include <array>
#include <stdexcept>

#include "netdyn/wire_format.h"

namespace bolot::netdyn {

Prober::Prober(const Clock& clock, ProberConfig config)
    : clock_(clock), config_(config), socket_(0) {
  if (config_.delta <= Duration::zero()) {
    throw std::invalid_argument("Prober: delta must be positive");
  }
  if (config_.probe_count == 0) {
    throw std::invalid_argument("Prober: probe_count must be positive");
  }
  // Sequence numbers 0 .. probe_count - 1 must fit the 32-bit wire field,
  // or a later echo would land in an earlier probe's record.
  if (config_.probe_count > (std::uint64_t{1} << 32)) {
    throw std::invalid_argument(
        "Prober: probe_count exceeds the 32-bit wire sequence space");
  }
  trace_.delta = config_.delta;
  trace_.probe_wire_bytes = static_cast<std::int64_t>(kProbePacketSize) + 40;
}

bool Prober::receive_echo(Duration timeout) {
  std::array<std::byte, kProbePacketSize> buffer{};
  const auto received = socket_.receive(buffer, timeout);
  if (!received) return false;  // timed out
  if (received->size != kProbePacketSize) return true;
  const auto msg = decode_probe(buffer);
  if (!msg || msg->seq >= trace_.records.size()) return true;  // stray
  auto& record = trace_.records[msg->seq];
  if (record.received) return true;  // duplicate echo
  record.received = true;
  record.rtt = clock_.now() - record.send_time;
  record.echo_time = msg->echo_ts;
  return true;
}

void Prober::receive_until(SimTime deadline) {
  for (;;) {
    const Duration remaining = deadline - clock_.now();
    if (remaining <= Duration::zero() || !receive_echo(remaining)) return;
  }
}

analysis::ProbeTrace Prober::run(const Endpoint& echo_host) {
  if (used_) throw std::logic_error("Prober: run() may be called once");
  used_ = true;

  trace_.records.reserve(config_.probe_count);
  const SimTime start = clock_.now();
  for (std::uint64_t seq = 0; seq < config_.probe_count; ++seq) {
    // Wait (collecting echoes) until this probe's send time.
    receive_until(start + config_.delta * static_cast<std::int64_t>(seq));

    analysis::ProbeRecord record;
    record.seq = seq;
    record.send_time = clock_.now();
    trace_.records.push_back(record);

    ProbeMessage msg;
    msg.seq = static_cast<std::uint32_t>(seq);
    msg.source_ts = record.send_time;
    const auto datagram = encode_probe(msg);
    socket_.send_to(datagram, echo_host);
    // Zero timeout: drain whatever is already queued.
    while (receive_echo(Duration::zero())) {
    }
  }
  receive_until(clock_.now() + config_.drain);
  return trace_;
}

}  // namespace bolot::netdyn

#include "model/bolot_model.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "model/fifo_server.h"

namespace bolot::model {

namespace {

/// Cross-traffic packet size batches are split into.
constexpr BitSize kBatchPacket = BitSize::bits(512 * 8);

}  // namespace

ModelRun run_model(const ModelConfig& config) {
  if (!config.batch_bits) {
    throw std::invalid_argument("run_model: batch_bits distribution required");
  }
  if (!config.mu.is_positive() || config.probe <= BitSize::zero()) {
    throw std::invalid_argument("run_model: mu and P must be positive");
  }
  if (config.batch_phase >= 1.0) {
    throw std::invalid_argument("run_model: batch_phase must be < 1");
  }
  if (config.delta <= Duration::zero()) {
    throw std::invalid_argument("run_model: delta must be positive");
  }

  Rng rng(config.seed);
  ModelRun run;
  run.trace.delta = config.delta;
  run.trace.probe_wire_bytes = config.probe.count() / 8;
  run.trace.records.reserve(config.probe_count);

  const Duration probe_service = config.mu.transmission_time(config.probe);
  // Drop-tail at buffer_packets, exactly like the simulator's Link.
  FifoServer server(config.buffer_packets);

  for (std::uint64_t n = 0; n < config.probe_count; ++n) {
    analysis::ProbeRecord record;
    record.seq = n;
    record.send_time = config.delta * static_cast<std::int64_t>(n);
    if (const auto departure = server.admit(record.send_time, probe_service)) {
      record.received = true;
      record.rtt = config.fixed_rtt + (*departure - record.send_time);
    }
    run.trace.records.push_back(record);

    // The batch lands at phase f of the interval, packet by packet
    // (drop-tail).
    const double phase =
        config.batch_phase < 0.0 ? rng.uniform() : config.batch_phase;
    const Duration batch_at =
        record.send_time + Duration::seconds(phase * config.delta.seconds());
    double remaining_bits = std::max(0.0, config.batch_bits(rng));
    while (remaining_bits > 0.5) {
      const double packet_bits =
          std::min(remaining_bits,
                   static_cast<double>(kBatchPacket.count()));
      remaining_bits -= packet_bits;
      if (!server.admit(batch_at,
                        Duration::seconds(packet_bits / config.mu.bps()))) {
        run.batch_bits_dropped += static_cast<std::uint64_t>(packet_bits);
      }
    }
  }
  return run;
}

BatchBitsDistribution empirical_batches(std::vector<double> sample_bits) {
  if (sample_bits.empty()) {
    throw std::invalid_argument("empirical_batches: empty sample");
  }
  auto sample = std::make_shared<std::vector<double>>(std::move(sample_bits));
  return [sample](Rng& rng) -> double {
    return (*sample)[rng.uniform_int(sample->size())];
  };
}

}  // namespace bolot::model

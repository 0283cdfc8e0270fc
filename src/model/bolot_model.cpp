#include "model/bolot_model.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>

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

  if (config.buffer_packets == 0) {
    throw std::invalid_argument("run_model: buffer_packets must be positive");
  }

  Rng rng(config.seed);
  ModelRun run;
  run.trace.delta = config.delta;
  run.trace.probe_wire_bytes = config.probe.count() / 8;
  run.trace.records.reserve(config.probe_count);

  const double delta_s = config.delta.seconds();
  const double probe_service_s =
      static_cast<double>(config.probe.count()) / config.mu.bps();

  // The queue is a FIFO of remaining service times (seconds); drop-tail
  // at buffer_packets entries, exactly like the simulator's Link.
  std::deque<double> queue;
  double backlog_s = 0.0;

  const auto drain = [&](double elapsed_s) {
    while (elapsed_s > 0.0 && !queue.empty()) {
      if (queue.front() <= elapsed_s) {
        elapsed_s -= queue.front();
        backlog_s -= queue.front();
        queue.pop_front();
      } else {
        queue.front() -= elapsed_s;
        backlog_s -= elapsed_s;
        elapsed_s = 0.0;
      }
    }
    if (queue.empty()) backlog_s = 0.0;  // absorb rounding residue
  };

  for (std::uint64_t n = 0; n < config.probe_count; ++n) {
    analysis::ProbeRecord record;
    record.seq = n;
    record.send_time = config.delta * static_cast<std::int64_t>(n);

    // Probe n arrives, finding backlog_s of work ahead of it (drop-tail:
    // it needs a free buffer slot).
    if (queue.size() < config.buffer_packets) {
      const double wait_s = backlog_s;
      queue.push_back(probe_service_s);
      backlog_s += probe_service_s;
      record.received = true;
      record.rtt =
          config.fixed_rtt + Duration::seconds(wait_s + probe_service_s);
      run.waits_ms.push_back(wait_s * 1e3);
    } else {
      ++run.probes_lost;
    }
    run.trace.records.push_back(record);

    // Serve until the batch arrival instant, add the batch packet by
    // packet (drop-tail), then serve until the next probe arrival.
    const double phase =
        config.batch_phase < 0.0 ? rng.uniform() : config.batch_phase;
    const double to_batch_s = phase * delta_s;
    drain(to_batch_s);
    const double batch_bits = std::max(0.0, config.batch_bits(rng));
    run.batches_bits.push_back(batch_bits);
    double remaining_bits = batch_bits;
    while (remaining_bits > 0.5) {
      const double packet_bits =
          std::min(remaining_bits,
                   static_cast<double>(kBatchPacket.count()));
      remaining_bits -= packet_bits;
      if (queue.size() < config.buffer_packets) {
        const double service_s = packet_bits / config.mu.bps();
        queue.push_back(service_s);
        backlog_s += service_s;
      } else {
        run.batch_bits_dropped += static_cast<std::uint64_t>(packet_bits);
      }
    }
    drain(delta_s - to_batch_s);
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

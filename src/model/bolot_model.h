// The paper's Fig.-3 model, evaluated exactly.
//
// A fixed delay D in series with one FIFO server of rate mu and finite
// buffer.  Arrivals are the superposition of the periodic probe stream
// (one packet of P bits every delta) and a batch-deterministic "Internet
// stream": between probe arrivals n and n+1 a random batch of b_n bits
// arrives at time t_n = n*delta + f*delta.  Waiting times follow from two
// applications of Lindley's recurrence, exactly as derived in section 4,
// evaluated on model::FifoServer in integer nanoseconds; this is also the
// "batch size distribution is general" model section 6 reports as under
// analysis.
//
// The evaluator produces a ProbeTrace so every analysis routine (phase
// plots, eq.-6 inversion, loss metrics) runs unchanged on model output —
// that is how the tests cross-validate estimator against model.
#pragma once

#include <cstdint>
#include <functional>

#include "analysis/probe_trace.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::model {

/// Draws the cross-traffic batch size, in bits, for one probe interval.
using BatchBitsDistribution = std::function<double(Rng&)>;

struct ModelConfig {
  Bandwidth mu = Bandwidth::kbps(128);           // bottleneck service rate
  BitSize probe = BitSize::bits(72 * 8);         // P (wire size)
  Duration delta = Duration::millis(50);
  Duration fixed_rtt = Duration::millis(140);  // D
  /// Buffer capacity in packets, counting the one in service — matching a
  /// router's drop-tail queue.  Packet granularity matters: K queued
  /// probes fill the buffer's slots with almost no backlog in bits.
  /// Batches are split into 512-byte packets for buffer accounting (the
  /// cross-traffic packet size; the paper's measurements indicate
  /// ~488-512 bytes).
  std::size_t buffer_packets = 14;
  /// Batch arrival phase within the interval: t_n = (n + phase) * delta.
  /// Must be in [0, 1), or negative for a uniformly random phase per
  /// interval (the general position of the paper's t_n).
  double batch_phase = -1.0;
  BatchBitsDistribution batch_bits;   // required
  std::uint64_t probe_count = 12000;
  std::uint64_t seed = 42;
};

struct ModelRun {
  analysis::ProbeTrace trace;      // rtt_n with the 0-for-lost convention
  std::uint64_t batch_bits_dropped = 0;  // cross-traffic clipped at buffer
};

/// Runs the recursion for config.probe_count probes.
ModelRun run_model(const ModelConfig& config);

/// Resamples batches from an empirical sample (e.g. the output of
/// analysis::analyze_workload applied to a measured trace), closing the
/// loop the paper describes: "we derive the batch size distribution from
/// our measurements using equation (6)".
BatchBitsDistribution empirical_batches(std::vector<double> sample_bits);

}  // namespace bolot::model

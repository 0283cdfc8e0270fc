// Helpers to synthesize ProbeTrace fixtures for analysis tests.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/loss.h"
#include "analysis/probe_trace.h"
#include "util/rng.h"

namespace bolot::analysis::testing {

/// Builds a trace from per-probe rtts in ms; nullopt marks a lost probe.
inline ProbeTrace make_trace(double delta_ms,
                             const std::vector<std::optional<double>>& rtts,
                             std::int64_t probe_wire_bytes = 72,
                             double clock_tick_ms = 0.0) {
  ProbeTrace trace;
  trace.delta = Duration::millis(delta_ms);
  trace.probe_wire_bytes = probe_wire_bytes;
  trace.clock_tick = Duration::millis(clock_tick_ms);
  for (std::size_t n = 0; n < rtts.size(); ++n) {
    ProbeRecord record;
    record.seq = n;
    record.send_time = Duration::millis(delta_ms * static_cast<double>(n));
    if (rtts[n]) {
      record.received = true;
      record.rtt = Duration::millis(*rtts[n]);
    }
    trace.records.push_back(record);
  }
  return trace;
}

/// Builds a trace from a loss indicator string: '.' received (rtt 100 ms),
/// 'x' lost.  Compact notation for loss-process tests.
inline ProbeTrace make_loss_trace(const char* pattern, double delta_ms = 50) {
  std::vector<std::optional<double>> rtts;
  for (const char* p = pattern; *p != '\0'; ++p) {
    if (*p == 'x') {
      rtts.push_back(std::nullopt);
    } else {
      rtts.push_back(100.0);
    }
  }
  return make_trace(delta_ms, rtts);
}

/// Length of the random streams behind the million-sample tests: long
/// enough that counter, snapshot and accumulation paths are exercised over
/// real horizons, not toy inputs.
inline constexpr std::size_t kMillionSamples = 1'000'000;

/// A 0/1 loss indicator sequence drawn from a Gilbert chain.
inline std::vector<std::uint8_t> random_gilbert_losses(std::uint64_t seed,
                                                       double p, double q,
                                                       std::size_t n) {
  Rng rng(seed);
  GilbertFit chain;
  chain.p = p;
  chain.q = q;
  return generate_gilbert(chain, n, rng);
}

/// Random-walk rtts around a base delay with loss gaps and an injected
/// compression cluster (descents of exactly `descent_ms` appear often);
/// `tick_ms` > 0 quantizes rtts to the source-clock grid.
inline std::vector<std::optional<double>> random_rtt_stream(
    std::uint64_t seed, std::size_t n, double loss_probability,
    double descent_ms, double tick_ms) {
  Rng rng(seed);
  std::vector<std::optional<double>> rtts;
  rtts.reserve(n);
  double rtt = 80.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(loss_probability)) {
      rtts.push_back(std::nullopt);
      continue;
    }
    if (rng.chance(0.25)) {
      rtt -= descent_ms;  // compression-line event
    } else {
      rtt += rng.uniform(-4.0, 5.0);
    }
    if (rtt < 40.0) rtt = 40.0 + rng.uniform(0.0, 30.0);
    if (rtt > 400.0) rtt = 400.0 - rng.uniform(0.0, 30.0);
    double value = rtt;
    if (tick_ms > 0.0) {
      value = std::round(value / tick_ms) * tick_ms;
      if (value <= 0.0) value = tick_ms;
    }
    rtts.push_back(value);
  }
  return rtts;
}

/// A random_rtt_stream as a trace of 72-byte probes at `delta_ms`, stamped
/// by a source clock of resolution `tick_ms` (0 = exact).
inline ProbeTrace stream_trace(const std::vector<std::optional<double>>& rtts,
                               double delta_ms, double tick_ms) {
  return make_trace(delta_ms, rtts, /*probe_wire_bytes=*/72, tick_ms);
}

}  // namespace bolot::analysis::testing

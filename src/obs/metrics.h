// MetricsRegistry: named counters and gauges, each a probe closure that is
// evaluated only when a snapshot is taken.  Components that already
// maintain their stats (LinkStats, TcpStats, ...) register probes over
// them, so the simulation hot path pays nothing per packet and never
// touches a string: a run's metrics are read after the fact, from counts
// the simulation keeps anyway.
//
// Snapshots are taken in registration order, so two runs that register
// the same metrics in the same order serialize byte-identically — the
// same determinism contract as runner::sweep_to_json.
//
// This layer depends only on util (SimTime is bolot::Duration); the sim
// components publish into it, not the other way around, so there is no
// library cycle (see docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/inplace_function.h"
#include "util/time.h"

namespace bolot::obs {

enum class MetricKind : std::uint8_t {
  kCounter,  // monotonic count (packets delivered, drops, ...)
  kGauge,    // instantaneous level (queue length, cwnd, ...)
};

/// Inline storage bound for probe closures — the same budget as the link
/// observation hooks, enforced at compile time by InplaceFunction.
inline constexpr std::size_t kProbeCapacity = 48;
using MetricProbe = util::InplaceFunction<double(), kProbeCapacity>;

/// One scalar in a snapshot, in registration order.  Counters are widened
/// to double (every consumer — JSON, runner::Metric — is double-based).
struct SnapshotEntry {
  std::string name;
  MetricKind kind = MetricKind::kGauge;
  double value = 0.0;
};

/// A standalone copy of every registered metric at one sim time.  Owns
/// its strings, so it outlives the registry (a sweep job returns it, via
/// runner::scenario_metrics, after its simulation is gone).
struct MetricsSnapshot {
  SimTime at;
  std::vector<SnapshotEntry> entries;  // registration order

  bool empty() const { return entries.empty(); }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a closure evaluated at snapshot time.  Names are unique:
  /// any reuse throws std::invalid_argument (two closures for one name
  /// would be ambiguous).
  void probe_counter(std::string_view name, MetricProbe probe);
  void probe_gauge(std::string_view name, MetricProbe probe);

  std::size_t size() const { return instruments_.size(); }

  /// Evaluates every probe, in registration order.  Non-const because
  /// probe closures are mutable callables.
  MetricsSnapshot snapshot(SimTime at);

 private:
  struct Instrument {
    std::string name;
    MetricKind kind;
    MetricProbe probe;
  };

  void add(std::string_view name, MetricKind kind, MetricProbe probe);

  std::vector<Instrument> instruments_;
  std::set<std::string, std::less<>> names_;
};

}  // namespace bolot::obs

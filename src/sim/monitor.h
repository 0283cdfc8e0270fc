// Measurement instrumentation for the simulator itself (as opposed to the
// NetDyn probes, which only see the network from the edge): per-flow drop
// accounting by cause.  Queue occupancy ground truth is an obs::Sampler
// series (obs/sampler.h).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sim/link.h"

namespace bolot::obs {
class MetricsRegistry;
}  // namespace bolot::obs

namespace bolot::sim {

/// Aggregates drop causes per flow across any number of links; attach()
/// chains onto each link's drop hook, so it composes with PacketLog and
/// other instrumentation in any attach order.
class DropMonitor {
 public:
  struct FlowDrops {
    std::uint64_t overflow = 0;
    std::uint64_t random = 0;
    std::uint64_t red = 0;
    std::uint64_t channel = 0;

    std::uint64_t total() const { return overflow + random + red + channel; }
  };

  void attach(Link& link);

  const FlowDrops& drops_for(std::uint32_t flow) const;
  /// Sum over every cause and flow (== drops_early + drops_overflow +
  /// drops_random, the backward-compatible total).
  std::uint64_t total_drops() const { return aggregate_.total(); }
  /// Aggregate split by cause across all flows.  "Early" drops are RED's
  /// probabilistic admission drops; "overflow" drops are buffer-full
  /// tail drops — reports that lumped them together can now tell a
  /// congestion-avoidance signal from an actual full queue.
  std::uint64_t drops_early() const { return aggregate_.red; }
  std::uint64_t drops_overflow() const { return aggregate_.overflow; }
  std::uint64_t drops_random() const { return aggregate_.random; }
  std::uint64_t drops_channel() const { return aggregate_.channel; }
  const std::map<std::uint32_t, FlowDrops>& by_flow() const { return drops_; }

  /// Registers "<prefix>.early", ".overflow", ".random", ".channel", and
  /// ".total" as snapshot-time probe counters.
  void publish_metrics(obs::MetricsRegistry& registry,
                       const std::string& prefix = "drops") const;

 private:
  void record(const Packet& packet, DropCause cause);

  std::map<std::uint32_t, FlowDrops> drops_;
  FlowDrops aggregate_;  // totals across flows, maintained on record()
  FlowDrops none_;       // returned for flows never seen
};

}  // namespace bolot::sim

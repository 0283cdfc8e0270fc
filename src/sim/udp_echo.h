// NetDyn inside the simulator: a probe source that sends fixed-size UDP
// probes every delta to an echo host, which bounces them straight back.
// The source timestamps sends and receptions (optionally through a
// coarse-resolution clock, emulating the paper's DECstation 5000) and
// produces a ProbeTrace for the analysis library.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "util/rng.h"

#include "analysis/probe_trace.h"
#include "sim/network.h"
#include "sim/packet.h"
#include "sim/simulator.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::obs {
class MetricsRegistry;
}  // namespace bolot::obs

namespace bolot::sim {

/// Echo application: registers as the receiver at `node`; probe packets
/// are stamped and sent back to their origin, everything else is dropped
/// silently (the node is also a sink for cross traffic).
class EchoHost {
 public:
  EchoHost(Simulator& sim, Network& net, NodeId node);

 private:
  void on_packet(Packet&& p);

  Simulator& sim_;
  Network& net_;
  NodeId node_;
};

struct ProbeSourceConfig {
  Duration delta = Duration::millis(50);          // send interval
  ByteSize probe_wire = kProbeWireBytes;
  std::uint64_t probe_count = 12000;              // 10 min at 50 ms
  /// When set, send/receive timestamps are floored to a multiple of this
  /// tick (e.g. kDecstationTick), as a coarse host clock would report.
  /// The tick must be positive; the constructor throws otherwise.
  std::optional<Duration> clock_tick;
  /// When set, overrides the fixed delta with per-probe random intervals
  /// (e.g. a VBR video codec's 15-120 ms frame spacing, section 5's open
  /// question).  `delta` still records the nominal interval for analyses
  /// that assume one; index-based loss metrics remain exact.
  /// It draws from an Rng seeded with a fixed 2024.
  std::function<Duration(Rng&)> interval_sampler;
};

class UdpEchoSource {
 public:
  UdpEchoSource(Simulator& sim, Network& net, NodeId source, NodeId echo,
                ProbeSourceConfig config);

  /// Begins the probe schedule at absolute time `at`.
  void start(SimTime at);

  /// Builds the trace; call after the run.  Probes still in flight count
  /// as lost, matching how a fixed-length experiment tallies them.
  analysis::ProbeTrace trace() const;
  /// The same trace moved out rather than copied, for a caller done with
  /// the source; trace() is empty afterwards.
  analysis::ProbeTrace take_trace();

  /// RTT of the most recently returned echo, in milliseconds through the
  /// (maybe coarse) source clock; 0 until the first echo arrives.
  double last_rtt_ms() const { return last_rtt_ms_; }

  /// Registers probe-side observables ("probe.sent", "probe.received",
  /// "probe.last_rtt_ms") as snapshot-time probes.
  void publish_metrics(obs::MetricsRegistry& registry) const;

 private:
  void send_next();
  void on_packet(Packet&& p);
  Duration stamp() const;  // current time through the (maybe coarse) clock

  Simulator& sim_;
  Network& net_;
  NodeId source_, echo_;
  ProbeSourceConfig config_;
  Rng interval_rng_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t received_ = 0;
  double last_rtt_ms_ = 0.0;
  analysis::ProbeTrace trace_;
};

}  // namespace bolot::sim

// Simulator fixtures for tests: a constant-bit-rate load and a queue
// drain.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/traffic.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::sim {

/// Constant bit rate: one `packet` every `interval` from start() on, the
/// last one at or before `last` when given.
class CbrSource final : public TrafficSource {
 public:
  CbrSource(Simulator& sim, Network& net, NodeId src, NodeId dst,
            std::uint32_t flow, PacketKind kind, Duration interval,
            ByteSize packet, std::optional<SimTime> last = std::nullopt)
      : TrafficSource(sim, net, src, dst, flow, kind, Rng(1)),
        interval_(interval),
        packet_(packet),
        last_(last) {}

 private:
  void step() override {
    emit(packet_);
    if (!last_ || sim().now() + interval_ <= *last_) schedule_step(interval_);
  }

  Duration interval_;
  ByteSize packet_;
  std::optional<SimTime> last_;
};

/// Dispatches events until none is pending.
inline void drain(Simulator& sim) {
  while (sim.pending_events() > 0) sim.dispatch_next();
}

}  // namespace bolot::sim

// Token-bucket traffic shaping.
//
// The paper's section 3 connects delay modeling to "predictive control
// mechanisms" (Mishra & Kanakia's rate-based scheme, ref [16]); shaping
// is the actuator such mechanisms drive.  TokenBucketShaper sits between
// a traffic source and the network: packets spend tokens (bytes) refilled
// at `rate_bps`; when the bucket is empty they queue in the shaper and
// are released as tokens accrue.  An ablation can then show how shaping
// the bursty cross traffic changes the probe loss process (clp/plg fall
// while average load stays fixed).
#pragma once

#include <cstdint>

#include "sim/network.h"
#include "sim/packet.h"
#include "sim/simulator.h"
#include "util/ring_buffer.h"
#include "util/units.h"

namespace bolot::sim {

struct ShaperConfig {
  Bandwidth rate = Bandwidth::kbps(128);       // token refill rate
  ByteSize bucket = ByteSize::bytes(2048);     // burst allowance
  std::size_t queue_packets = 256;             // shaper queue bound (tail drop)
};

class TokenBucketShaper {
 public:
  TokenBucketShaper(Simulator& sim, Network& net, ShaperConfig config);

  /// Offers a packet: forwarded immediately if tokens cover it, queued
  /// (and released in order as tokens refill) otherwise, dropped if the
  /// shaper queue is full.
  void offer(Packet&& packet);

  std::uint64_t dropped() const { return dropped_; }

 private:
  void refill_to_now();
  void release_ready();
  /// `rearm` is true only when called from release_ready's own event.
  void schedule_release(bool rearm);

  Simulator& sim_;
  Network& net_;
  ShaperConfig config_;
  double tokens_bytes_;
  SimTime last_refill_;
  /// Held packets; full capacity (queue_packets) is reserved at
  /// construction, so offer() never allocates.
  util::RingBuffer<Packet> queue_;
  std::uint64_t dropped_ = 0;
};

}  // namespace bolot::sim

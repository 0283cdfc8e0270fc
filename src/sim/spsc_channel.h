// Single-producer single-consumer handoff channel for the PDES kernel
// (sim/pdes.h): one channel per ordered pair of domains connected by at
// least one cut link.  Carries packets that finished transmission in the
// sending domain, stamped with their far-end arrival time, a global link
// uid, and a per-link send sequence number — the receiving domain merges
// handoffs into its event stream in (at, link, stamp) order so delivery
// order never depends on thread scheduling.
//
// The ring is lock-free and fixed-capacity; the producer NEVER blocks
// (blocking inside an event callback could deadlock the cooperative
// domain scheduler).  Overflow spills into a producer-private deque that
// is flushed back into the ring opportunistically.  Spilled handoffs are
// invisible to the consumer, so the producer's published safe-time is
// capped at (earliest spilled arrival - channel lookahead): the consumer
// then cannot advance past the point where the spilled packet matters,
// and the protocol stays conservative even when the ring is full.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sim/packet.h"
#include "util/time.h"

namespace bolot::sim {

/// One cross-domain packet handoff.  Trivially copyable so ring slots are
/// plain stores/loads with no construction protocol.
struct Handoff {
  SimTime at;           // arrival time at the receiving end
  std::uint32_t link;   // global link uid (Network link index)
  std::uint64_t stamp;  // per-link send sequence (FIFO tiebreak at equal at)
  Packet packet;
};
static_assert(std::is_trivially_copyable_v<Handoff>,
              "Handoff must be trivially copyable for lock-free slots");

class SpscChannel {
 public:
  static constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

  explicit SpscChannel(std::size_t capacity = 1024) : slots_(capacity) {
    if (capacity == 0 || (capacity & (capacity - 1)) != 0) {
      throw std::invalid_argument("SpscChannel: capacity must be a power of 2");
    }
    mask_ = capacity - 1;
  }

  SpscChannel(const SpscChannel&) = delete;
  SpscChannel& operator=(const SpscChannel&) = delete;

  /// Lookahead of the cut this channel carries: min propagation delay over
  /// its links.  Set once at attach time, read by both sides.
  void set_lookahead(Duration lookahead) {
    lookahead_ns_ = lookahead.count_nanos();
  }
  std::int64_t lookahead_ns() const { return lookahead_ns_; }

  // ---- producer side ----------------------------------------------------

  /// Enqueues a handoff.  Never blocks: if the ring is full the handoff
  /// spills into the producer-private overflow (see spill_bound_ns).
  void push(const Handoff& h) {
    flush();
    if (!spill_.empty() || !try_push_ring(h)) {
      spill_.push_back(h);
      ++spilled_;
    }
  }

  /// Moves spilled handoffs back into the ring while there is room.
  void flush() {
    while (!spill_.empty() && try_push_ring(spill_.front())) {
      spill_.pop_front();
    }
  }

  bool spill_empty() const { return spill_.empty(); }

  /// Handoffs pushed so far that went to the spill instead of the ring.
  std::uint64_t spilled() const { return spilled_; }

  /// Safe-time cap imposed by invisible (spilled) handoffs: the producer
  /// must not advertise a time later than (earliest spilled arrival -
  /// lookahead), because the consumer's horizon is safe-time + lookahead
  /// and the spilled packet is not yet observable.  kNever when empty.
  std::int64_t spill_bound_ns() const {
    if (spill_.empty()) return kNever;
    const std::int64_t at = spill_.front().at.count_nanos();
    // Spill FIFO is in push order; at equal times later pushes can't be
    // earlier, and arrival times per link are non-decreasing, but the
    // channel can multiplex several links — scan for the true minimum.
    std::int64_t min_at = at;
    for (const Handoff& h : spill_) {
      if (h.at.count_nanos() < min_at) min_at = h.at.count_nanos();
    }
    return min_at <= lookahead_ns_ ? 0 : min_at - lookahead_ns_;
  }

  // ---- consumer side ----------------------------------------------------

  /// Pops the oldest handoff if one is visible.
  bool pop(Handoff& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return false;
    out = slots_[tail & mask_];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  bool try_push_ring(const Handoff& h) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_.load(std::memory_order_acquire) > mask_) return false;
    slots_[head & mask_] = h;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  std::vector<Handoff> slots_;
  std::size_t mask_;
  std::int64_t lookahead_ns_ = 0;
  /// Producer-private overflow; only the producer thread touches it.
  std::deque<Handoff> spill_;
  std::uint64_t spilled_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // producer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  // consumer cursor
};

}  // namespace bolot::sim

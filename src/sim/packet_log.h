// Per-packet event logging for the simulator: a tcpdump for the virtual
// network.  Attach a PacketLog to links to record departures and drops
// with timestamps, then dump to CSV for external analysis or query it in
// tests ("which flow lost packets during the burst at t = 3 s?").
//
// Delivery events hook the link delivery hook, drop events the drop hook;
// both chain to whatever was installed before, so logging composes with
// other drop hooks and with the Network's own forwarding.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/link.h"
#include "sim/simulator.h"

namespace bolot::sim {

enum class PacketEventKind : std::uint8_t {
  kDelivered,  // completed service + propagation on a link
  kDropped,
};

struct PacketEvent {
  SimTime at;
  PacketEventKind kind = PacketEventKind::kDelivered;
  DropCause cause = DropCause::kOverflow;  // meaningful for kDropped
  std::uint32_t link_id = 0;  // interned LinkConfig::name; see link_name()
  std::uint64_t packet_id = 0;
  std::uint32_t flow = 0;
  PacketKind packet_kind = PacketKind::kOther;
  std::int64_t size_bytes = 0;
};

class PacketLog {
 public:
  /// `capacity` bounds memory: once full, the oldest events are evicted
  /// (ring semantics), and `evicted()` counts them.
  explicit PacketLog(std::size_t capacity = 1 << 20);

  /// Instruments `link`, chaining after any drop/delivery hooks already
  /// installed (attach order is fire order).  `sim` supplies timestamps
  /// for drop events.
  void attach(Simulator& sim, Link& link);

  /// Split halves of attach(), for sharded runs where one link's drop
  /// hooks fire in the sending domain and its delivery hooks in the
  /// receiving domain: a log written from both sides of a cut link would
  /// be a data race, so instrument each side with its own PacketLog.
  void attach_drops(Simulator& sim, Link& link);
  void attach_deliveries(Link& link);

  const std::vector<PacketEvent>& events() const;
  std::uint64_t evicted() const { return evicted_; }

  /// Resolves an interned PacketEvent::link_id back to the link's name.
  /// Throws std::out_of_range for ids this log never issued.
  const std::string& link_name(std::uint32_t id) const;

  /// Interned names in id order (id == index).  One entry per attached
  /// link name; events store the 4-byte id instead of a std::string copy.
  const std::vector<std::string>& link_names() const { return link_names_; }

  /// Events matching a flow (in time order).
  std::vector<PacketEvent> for_flow(std::uint32_t flow) const;

  /// Drops in [from, to).
  std::vector<PacketEvent> drops_between(SimTime from, SimTime to) const;

  /// CSV: at_ns,event,cause,link,packet_id,flow,kind,bytes
  void write_csv(std::ostream& os) const;

 private:
  void record(PacketEvent event);
  /// Returns the id for `name`, adding it to the side table if new.
  std::uint32_t intern_link(const std::string& name);
  /// Rebuilds events_ in chronological order if the ring has wrapped.
  void normalize() const;

  std::vector<std::string> link_names_;  // id -> name
  std::size_t capacity_;
  mutable std::vector<PacketEvent> events_;
  mutable std::size_t next_ = 0;  // ring cursor once at capacity
  mutable bool wrapped_ = false;
  std::uint64_t evicted_ = 0;
};

}  // namespace bolot::sim

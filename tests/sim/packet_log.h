// Per-packet event logging for the simulator's tests: a tcpdump for the
// virtual network.  Attach a PacketLog to links to record departures and
// drops with timestamps, then read events() ("which flow lost packets
// during the burst at t = 3 s?").  The log is bounded: it holds at most
// its capacity of events and throws when one more arrives, so a caller
// never reads a series with its start silently cut off.
//
// Delivery events come from the link's delivery hook, drop events from
// its drop hook; a link holds one of each, so the log is a link's only
// observer.  The Network's own forwarding runs in the sink and is
// untouched.
#pragma once

#include <cstdint>
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
  std::uint32_t link_id = 0;  // interned LinkConfig::name, in attach order
  std::uint64_t packet_id = 0;
  std::uint32_t flow = 0;
  PacketKind packet_kind = PacketKind::kOther;
  std::int64_t size_bytes = 0;
  /// When the link admitted the packet (Packet::hop_start): meaningful
  /// for a delivery and for a kChannel drop, which the link admitted and
  /// served before the channel lost it.
  SimTime hop_start;
  /// kDropped: the link's LinkStats::offered, and ::delivered plus
  /// ::channel_drops, as the drop fired.  They place the drop in the
  /// kernel's event order: it was the `offered`-th packet handed to the
  /// link, and `sent` packets had left its transmitter before it,
  /// including any that left at the same instant.  A kChannel drop fires
  /// as it leaves the transmitter, so it counts itself in `sent` and
  /// `offered` counts the arrivals up to that instant.
  std::uint64_t offered = 0;
  std::uint64_t sent = 0;
};

class PacketLog {
 public:
  /// `capacity` bounds memory: recording one event past it throws
  /// std::length_error rather than hand back a truncated series.
  explicit PacketLog(std::size_t capacity = 1 << 20);

  /// Instruments `link` by setting its drop and delivery hooks (throws
  /// std::logic_error if either is already set).  `sim` supplies
  /// timestamps for drop events.
  void attach(Simulator& sim, Link& link);

  /// Split halves of attach(), for sharded runs where one link's drop
  /// hook fires in the sending domain and its delivery hook in the
  /// receiving domain: a log written from both sides of a cut link would
  /// be a data race, so instrument each side with its own PacketLog.
  void attach_drops(Simulator& sim, Link& link);
  void attach_deliveries(Link& link);

  /// Every recorded event, in record order.
  const std::vector<PacketEvent>& events() const { return events_; }

 private:
  void record(PacketEvent event);
  /// Returns the id for `name`, adding it to the side table if new.
  std::uint32_t intern_link(const std::string& name);

  std::vector<std::string> link_names_;  // id -> name
  std::size_t capacity_;
  std::vector<PacketEvent> events_;
};

}  // namespace bolot::sim

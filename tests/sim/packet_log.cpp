#include "tests/sim/packet_log.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bolot::sim {

PacketLog::PacketLog(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("PacketLog: capacity must be positive");
  }
  events_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void PacketLog::attach(Simulator& sim, Link& link) {
  attach_deliveries(link);
  attach_drops(sim, link);
}

void PacketLog::attach_deliveries(Link& link) {
  // Intern the name once at attach time; the per-event hooks then store a
  // 4-byte id instead of constructing a std::string per delivery/drop.
  const std::uint32_t link_id = intern_link(link.config().name);
  link.set_delivery_hook([this, link_id](const Packet& packet, SimTime at) {
    PacketEvent event;
    event.at = at;
    event.kind = PacketEventKind::kDelivered;
    event.link_id = link_id;
    event.packet_id = packet.id;
    event.flow = packet.flow;
    event.packet_kind = packet.kind;
    event.size_bytes = packet.size_bytes;
    event.hop_start = packet.hop_start;
    record(event);
  });
}

void PacketLog::attach_drops(Simulator& sim, Link& link) {
  const std::uint32_t link_id = intern_link(link.config().name);
  link.set_drop_hook([this, link_id, &sim, &link](const Packet& packet,
                                                  DropCause cause) {
    PacketEvent event;
    event.at = sim.now();
    event.kind = PacketEventKind::kDropped;
    event.cause = cause;
    event.link_id = link_id;
    event.packet_id = packet.id;
    event.flow = packet.flow;
    event.packet_kind = packet.kind;
    event.size_bytes = packet.size_bytes;
    event.hop_start = packet.hop_start;
    event.offered = link.stats().offered;
    event.sent = link.stats().delivered + link.stats().channel_drops;
    record(event);
  });
}

std::uint32_t PacketLog::intern_link(const std::string& name) {
  for (std::size_t i = 0; i < link_names_.size(); ++i) {
    if (link_names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  link_names_.push_back(name);
  return static_cast<std::uint32_t>(link_names_.size() - 1);
}

void PacketLog::record(PacketEvent event) {
  if (events_.size() == capacity_) {
    throw std::length_error("PacketLog: full at its capacity of " +
                            std::to_string(capacity_) + " events");
  }
  events_.push_back(event);
}

}  // namespace bolot::sim

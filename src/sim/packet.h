// The simulator's packet representation.
//
// Sizes are wire sizes (payload + UDP/IP headers): the paper's 32-byte
// probes occupy 72 bytes on the wire, and that is the size that matters at
// the bottleneck queue.
#pragma once

#include <cstdint>
#include <type_traits>

#include "util/audit.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::sim {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

enum class PacketKind : std::uint8_t {
  kProbe,        // NetDyn UDP probe
  kBulk,         // FTP-like bulk data
  kInteractive,  // Telnet-like keystroke traffic
  kOther,
};

/// Extra fields carried only by NetDyn probes: the sequence number and the
/// three timestamp fields of the measurement tool's wire format.  Trivial
/// (no member initializers) so it can live in Packet's payload union;
/// always aggregate-initialized in full.
struct ProbePayload {
  std::uint64_t seq;
  Duration source_ts;  // stamped when the source sends the probe
  Duration echo_ts;    // stamped when the echo host forwards it back
  bool echoed;
};

/// TCP segment metadata (see sim/tcp.h): `seq` is the segment index for
/// data, or the cumulative-ack value for acks.  Trivial for the same
/// reason as ProbePayload.
struct TcpSegmentInfo {
  std::uint64_t seq;
  bool is_ack;
};

/// A packet is copied along every hop of the datapath (queue ring, flight
/// ring), so it is kept trivially copyable and within two cache lines.
/// The protocol payloads (probe metadata, TCP segment metadata) are
/// mutually exclusive on the wire, so they share storage in a tagged
/// union instead of paying for two std::optionals.
struct Packet {
  std::uint64_t id = 0;          // globally unique, assigned by the creator
  PacketKind kind = PacketKind::kOther;
  std::uint32_t flow = 0;        // traffic source identifier
  std::int64_t size_bytes = 0;   // wire size
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  /// Time the packet was admitted to the link it is on now, stamped by
  /// Link::enqueue.  Delivery minus hop_start is the packet's sojourn at
  /// that link: queueing wait + service + propagation (+ channel/fluid
  /// extra delay).
  SimTime hop_start;

  /// The wire size as a typed quantity (size_bytes itself stays a raw
  /// field so the struct remains an aggregate of scalars; see MODEL_NOTES
  /// §16 on which boundaries stay raw).
  ByteSize size() const { return ByteSize::bytes(size_bytes); }

  bool has_probe() const { return payload_ == Payload::kProbe; }
  bool has_tcp() const { return payload_ == Payload::kTcp; }

  /// Active probe payload.  Requires has_probe(): reading the union
  /// through the wrong member is exactly the silent-corruption class the
  /// audit build exists to catch.
  ProbePayload& probe() {
    audit_tag(Payload::kProbe);
    return probe_;
  }
  const ProbePayload& probe() const {
    audit_tag(Payload::kProbe);
    return probe_;
  }

  /// Active TCP metadata.  Requires has_tcp().
  TcpSegmentInfo& tcp() {
    audit_tag(Payload::kTcp);
    return tcp_;
  }

  void set_probe(const ProbePayload& probe) {
    payload_ = Payload::kProbe;
    probe_ = probe;
  }
  void set_tcp(const TcpSegmentInfo& tcp) {
    payload_ = Payload::kTcp;
    tcp_ = tcp;
  }

 private:
  enum class Payload : std::uint8_t { kNone, kProbe, kTcp };

  void audit_tag(Payload expected) const {
    SIM_AUDIT(payload_ == expected,
              "Packet %llu (flow %u, kind %u): union tag %u read as %u",
              static_cast<unsigned long long>(id), flow,
              static_cast<unsigned>(kind), static_cast<unsigned>(payload_),
              static_cast<unsigned>(expected));
  }

  Payload payload_ = Payload::kNone;
  union {
    ProbePayload probe_{};  // initialized variant: keeps Packet{} well-formed
    TcpSegmentInfo tcp_;
  };
};

// The forwarding path moves Packets through preallocated rings by value;
// these are the properties that keep that path memcpy-cheap.
static_assert(std::is_trivially_copyable_v<Packet>,
              "Packet must stay trivially copyable for the datapath rings");
static_assert(sizeof(Packet) <= 128,
              "Packet must fit in two cache lines; grow the tagged union "
              "deliberately, not by accident");

/// Wire size of the paper's probe packets: 32 bytes of UDP payload plus
/// 8 bytes UDP and 20 bytes IP header, plus link framing rounded to 72.
inline constexpr ByteSize kProbeWireBytes = ByteSize::bytes(72);

/// Wire size we use for one "FTP packet" of cross traffic; the paper
/// estimates ~488 bytes from its measurements (eq. 6).
inline constexpr ByteSize kFtpWireBytes = ByteSize::bytes(512);

/// Wire size for one interactive (Telnet-like) packet.
inline constexpr ByteSize kTelnetWireBytes = ByteSize::bytes(64);

}  // namespace bolot::sim

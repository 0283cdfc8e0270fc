// NetDyn probe wire format: 32 bytes, matching the paper's description of
// the tool (32-byte UDP payload carrying a unique packet number and three
// 6-byte timestamp fields).
//
//   offset  size  field
//        0     4  magic "NDYN"
//        4     4  sequence number (big-endian uint32)
//        8     6  source timestamp     (written by the sender)
//       14     6  echo timestamp       (written by the echo host)
//       20     6  destination timestamp (written on final receipt)
//       26     6  padding (zero)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "util/time.h"

namespace bolot::netdyn {

inline constexpr std::size_t kProbePacketSize = 32;
inline constexpr std::array<std::byte, 4> kMagic = {
    std::byte{'N'}, std::byte{'D'}, std::byte{'Y'}, std::byte{'N'}};

struct ProbeMessage {
  std::uint32_t seq = 0;
  Duration source_ts;
  Duration echo_ts;
  Duration destination_ts;
};

/// Serializes into exactly kProbePacketSize bytes.
std::array<std::byte, kProbePacketSize> encode_probe(const ProbeMessage& msg);

/// Parses a datagram; returns nullopt on wrong size, bad magic or non-zero
/// padding.  Every datagram it accepts re-encodes to the same bytes.
std::optional<ProbeMessage> decode_probe(std::span<const std::byte> datagram);

/// Overwrites only the echo-timestamp field in a serialized probe, the way
/// the echo host updates packets in place without reserializing.
void stamp_echo_in_place(std::span<std::byte> datagram, Duration echo_ts);

}  // namespace bolot::netdyn

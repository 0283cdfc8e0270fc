#include "netdyn/wire_format.h"

#include <algorithm>
#include <stdexcept>

#include "nettime/wire_timestamp.h"

namespace bolot::netdyn {

namespace {
constexpr std::size_t kSeqOffset = 4;
constexpr std::size_t kSourceOffset = 8;
constexpr std::size_t kEchoOffset = 14;
constexpr std::size_t kDestOffset = 20;
constexpr std::size_t kPaddingOffset = 26;
}  // namespace

std::array<std::byte, kProbePacketSize> encode_probe(const ProbeMessage& msg) {
  std::array<std::byte, kProbePacketSize> out{};
  std::copy(kMagic.begin(), kMagic.end(), out.begin());
  for (std::size_t i = 0; i < 4; ++i) {
    out[kSeqOffset + i] =
        static_cast<std::byte>((msg.seq >> (8 * (3 - i))) & 0xFF);
  }
  encode_wire_timestamp(
      msg.source_ts,
      std::span<std::byte, kWireTimestampSize>(out.data() + kSourceOffset,
                                               kWireTimestampSize));
  encode_wire_timestamp(
      msg.echo_ts, std::span<std::byte, kWireTimestampSize>(
                       out.data() + kEchoOffset, kWireTimestampSize));
  encode_wire_timestamp(
      msg.destination_ts, std::span<std::byte, kWireTimestampSize>(
                              out.data() + kDestOffset, kWireTimestampSize));
  return out;
}

std::optional<ProbeMessage> decode_probe(std::span<const std::byte> datagram) {
  if (datagram.size() != kProbePacketSize) return std::nullopt;
  if (!std::equal(kMagic.begin(), kMagic.end(), datagram.begin())) {
    return std::nullopt;
  }
  // encode_probe zeroes the padding, so any other bytes there mean the
  // datagram is not one of ours (or was corrupted on the way).
  if (!std::all_of(datagram.begin() + kPaddingOffset, datagram.end(),
                   [](std::byte b) { return b == std::byte{0}; })) {
    return std::nullopt;
  }
  ProbeMessage msg;
  for (std::size_t i = 0; i < 4; ++i) {
    msg.seq = (msg.seq << 8) |
              static_cast<std::uint32_t>(datagram[kSeqOffset + i]);
  }
  msg.source_ts = decode_wire_timestamp(
      std::span<const std::byte, kWireTimestampSize>(
          datagram.data() + kSourceOffset, kWireTimestampSize));
  msg.echo_ts =
      decode_wire_timestamp(std::span<const std::byte, kWireTimestampSize>(
          datagram.data() + kEchoOffset, kWireTimestampSize));
  msg.destination_ts =
      decode_wire_timestamp(std::span<const std::byte, kWireTimestampSize>(
          datagram.data() + kDestOffset, kWireTimestampSize));
  return msg;
}

void stamp_echo_in_place(std::span<std::byte> datagram, Duration echo_ts) {
  if (datagram.size() != kProbePacketSize) {
    throw std::invalid_argument("stamp_echo_in_place: wrong datagram size");
  }
  encode_wire_timestamp(echo_ts,
                        std::span<std::byte, kWireTimestampSize>(
                            datagram.data() + kEchoOffset, kWireTimestampSize));
}

}  // namespace bolot::netdyn

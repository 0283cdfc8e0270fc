#include "nettime/wire_timestamp.h"

#include <stdexcept>

namespace bolot {

void encode_wire_timestamp(Duration t,
                           std::span<std::byte, kWireTimestampSize> out) {
  const std::int64_t us =
      t.count_nanos() / 1000;  // truncate to microsecond resolution
  if (us < 0 || us >= (std::int64_t{1} << 48)) {
    throw std::out_of_range("wire timestamp out of 48-bit range");
  }
  const auto u = static_cast<std::uint64_t>(us);
  for (std::size_t i = 0; i < kWireTimestampSize; ++i) {
    out[i] = static_cast<std::byte>((u >> (8 * (kWireTimestampSize - 1 - i))) &
                                    0xFF);
  }
}

Duration decode_wire_timestamp(
    std::span<const std::byte, kWireTimestampSize> in) {
  std::uint64_t u = 0;
  for (std::size_t i = 0; i < kWireTimestampSize; ++i) {
    u = (u << 8) | static_cast<std::uint64_t>(in[i]);
  }
  // Integer path: 2^48 - 1 us is not exactly representable as a double.
  return Duration::nanos(static_cast<std::int64_t>(u) * 1000);
}

}  // namespace bolot

// NetDyn's probe packets carry three 6-byte timestamps (source, echo,
// destination).  Six bytes of microseconds cover 2^48 us ~ 8.9 years, enough
// for any experiment; we encode big-endian microseconds since the sender's
// epoch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/time.h"

namespace bolot {

inline constexpr std::size_t kWireTimestampSize = 6;

/// Encodes `t` (non-negative, < 2^48 us) into 6 big-endian bytes at `out`.
/// Throws std::out_of_range if the value does not fit.
void encode_wire_timestamp(Duration t, std::span<std::byte, kWireTimestampSize> out);

/// Decodes 6 big-endian bytes into a Duration (microsecond resolution).
Duration decode_wire_timestamp(std::span<const std::byte, kWireTimestampSize> in);

}  // namespace bolot

#include "netdyn/wire_format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace bolot::netdyn {
namespace {

TEST(WireFormatTest, PacketIs32Bytes) {
  // The paper: "we send probe packets of 32 bytes each", carrying three
  // 6-byte timestamps and a packet number.
  EXPECT_EQ(kProbePacketSize, 32u);
  ProbeMessage msg;
  EXPECT_EQ(encode_probe(msg).size(), 32u);
}

TEST(WireFormatTest, RoundTripsAllFields) {
  ProbeMessage msg;
  msg.seq = 123456789;
  msg.source_ts = Duration::millis(1000.125);
  msg.echo_ts = Duration::millis(1070.250);
  msg.destination_ts = Duration::millis(1140.375);
  const auto wire = encode_probe(msg);
  const auto decoded = decode_probe(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, msg.seq);
  EXPECT_EQ(decoded->source_ts, msg.source_ts);
  EXPECT_EQ(decoded->echo_ts, msg.echo_ts);
  EXPECT_EQ(decoded->destination_ts, msg.destination_ts);
}

TEST(WireFormatTest, RejectsWrongSize) {
  const std::vector<std::byte> short_datagram(16);
  EXPECT_FALSE(decode_probe(short_datagram).has_value());
  const std::vector<std::byte> long_datagram(64);
  EXPECT_FALSE(decode_probe(long_datagram).has_value());
}

TEST(WireFormatTest, RejectsBadMagic) {
  ProbeMessage msg;
  auto wire = encode_probe(msg);
  wire[0] = std::byte{'X'};
  std::vector<std::byte> datagram(wire.begin(), wire.end());
  EXPECT_FALSE(decode_probe(datagram).has_value());
}

TEST(WireFormatTest, StampEchoInPlaceOnlyTouchesEchoField) {
  ProbeMessage msg;
  msg.seq = 42;
  msg.source_ts = Duration::millis(500);
  auto wire = encode_probe(msg);
  std::vector<std::byte> datagram(wire.begin(), wire.end());
  stamp_echo_in_place(datagram, Duration::millis(777));
  const auto decoded = decode_probe(datagram);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->source_ts, Duration::millis(500));
  EXPECT_EQ(decoded->echo_ts, Duration::millis(777));
  EXPECT_EQ(decoded->destination_ts, Duration::zero());
}

TEST(WireFormatTest, StampEchoValidatesSize) {
  std::vector<std::byte> datagram(16);
  EXPECT_THROW(stamp_echo_in_place(datagram, Duration::millis(1)),
               std::invalid_argument);
}

TEST(WireFormatTest, SequenceNumberBigEndian) {
  ProbeMessage msg;
  msg.seq = 0x01020304;
  const auto wire = encode_probe(msg);
  EXPECT_EQ(wire[4], std::byte{0x01});
  EXPECT_EQ(wire[5], std::byte{0x02});
  EXPECT_EQ(wire[6], std::byte{0x03});
  EXPECT_EQ(wire[7], std::byte{0x04});
}

TEST(WireFormatTest, PaddingIsZero) {
  ProbeMessage msg;
  msg.seq = UINT32_MAX;
  msg.source_ts = Duration::millis(999);
  const auto wire = encode_probe(msg);
  for (std::size_t i = 26; i < 32; ++i) {
    EXPECT_EQ(wire[i], std::byte{0}) << i;
  }
}

TEST(WireFormatTest, RejectsNonZeroPadding) {
  ProbeMessage msg;
  msg.seq = 7;
  for (std::size_t i = 26; i < 32; ++i) {
    auto wire = encode_probe(msg);
    wire[i] = std::byte{0x01};
    EXPECT_FALSE(decode_probe(wire).has_value()) << i;
  }
}

/// The decoder's contract, written independently of it: a datagram is a
/// probe iff it is 32 bytes, opens with the magic and ends in six zeros.
bool is_probe(std::span<const std::byte> d) {
  return d.size() == kProbePacketSize &&
         std::equal(kMagic.begin(), kMagic.end(), d.begin()) &&
         std::all_of(d.begin() + 26, d.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

/// decode_probe accepts `d` iff is_probe(d), and re-encoding what it
/// accepts gives back `d` byte for byte.
::testing::AssertionResult decodes_per_contract(std::span<const std::byte> d) {
  const auto msg = decode_probe(d);
  if (msg.has_value() != is_probe(d)) {
    return ::testing::AssertionFailure()
           << (msg ? "accepted" : "rejected") << " a " << d.size()
           << "-byte datagram";
  }
  if (msg) {
    const auto again = encode_probe(*msg);
    if (!std::equal(again.begin(), again.end(), d.begin(), d.end())) {
      return ::testing::AssertionFailure() << "re-encoding changed the bytes";
    }
  }
  return ::testing::AssertionSuccess();
}

/// A well-formed probe with every field drawn from `rng`.
std::array<std::byte, kProbePacketSize> random_probe(Rng& rng) {
  constexpr std::uint64_t kMaxMicros = std::uint64_t{1} << 48;
  const auto micros = [&rng] {
    return Duration::nanos(
        static_cast<std::int64_t>(rng.uniform_int(kMaxMicros)) * 1000);
  };
  ProbeMessage msg;
  msg.seq = static_cast<std::uint32_t>(rng.next_u64());
  msg.source_ts = micros();
  msg.echo_ts = micros();
  msg.destination_ts = micros();
  return encode_probe(msg);
}

TEST(WireFormatTest, DecodeAcceptsExactlyTheWellFormedUnderMutation) {
  Rng rng(0x4E44594EULL);
  const auto base = random_probe(rng);
  ASSERT_TRUE(decodes_per_contract(base));
  ASSERT_TRUE(decode_probe(base).has_value());

  // Every byte value at every offset.
  for (std::size_t offset = 0; offset < kProbePacketSize; ++offset) {
    for (int value = 0; value < 256; ++value) {
      auto wire = base;
      wire[offset] = static_cast<std::byte>(value);
      ASSERT_TRUE(decodes_per_contract(wire))
          << "offset " << offset << " value " << value;
    }
  }

  // Every length from 0 to 64: the probe's bytes, cut short or extended
  // with zeros, so only the size can make the difference.
  for (std::size_t length = 0; length <= 2 * kProbePacketSize; ++length) {
    std::vector<std::byte> datagram(length);
    std::copy_n(base.begin(), std::min(length, kProbePacketSize),
                datagram.begin());
    ASSERT_TRUE(decodes_per_contract(datagram)) << "length " << length;
  }

  // Random mutations of random probes: one to four bytes rewritten, and
  // one case in eight resized as well.
  std::size_t accepted = 0;
  for (int i = 0; i < 10'000; ++i) {
    const auto probe = random_probe(rng);
    std::vector<std::byte> datagram(probe.begin(), probe.end());
    const std::uint64_t rewrites = 1 + rng.uniform_int(4);
    for (std::uint64_t k = 0; k < rewrites; ++k) {
      datagram[rng.uniform_int(kProbePacketSize)] =
          static_cast<std::byte>(rng.uniform_int(256));
    }
    if (rng.uniform_int(8) == 0) {
      datagram.resize(rng.uniform_int(2 * kProbePacketSize + 1));
    }
    ASSERT_TRUE(decodes_per_contract(datagram)) << "mutation " << i;
    if (is_probe(datagram)) ++accepted;
  }
  // Both outcomes are well represented, so neither side is vacuous.
  EXPECT_GT(accepted, 1000u);
  EXPECT_LT(accepted, 9000u);
}

}  // namespace
}  // namespace bolot::netdyn

// Compile-time dimensional analysis for the quantities the paper mixes in
// every formula: bandwidths (bits/s), sizes (bytes vs bits) and
// probabilities ([0, 1]).
//
// Only time was strongly typed before this header (util/time.h Duration);
// everything else travelled as bare `double rate_bps` / `int64 bytes`
// scalars, so a bits-vs-bytes or bps-vs-Bps mixup compiled silently.  The
// types here make the compiler reject that bug class:
//
//   * construction from a raw scalar is `explicit` — no implicit
//     `double -> Probability` or `int -> ByteSize`;
//   * there is no arithmetic across dimensions (`Bandwidth + ByteSize`
//     does not compile), only the physically meaningful operations
//     (`Bandwidth::transmission_time(ByteSize) -> Duration`);
//   * a ByteSize widens to a BitSize only through the named, exact
//     BitSize::of; neither size converts to the other implicitly.
//
// Every negative-compilation guarantee is regression-pinned by
// tests/compile_fail/ (each `explicit` keyword and conversion rule has a
// one-liner that must NOT compile; CI builds them with GCC and Clang).
//
// Zero overhead by construction: each type wraps exactly the scalar the
// old code passed (same representation, same arithmetic, `constexpr`
// everywhere, trivially copyable — static_asserts below pin that), so the
// refactor is byte-identical at runtime, and serialization keeps writing
// the raw SI doubles (MODEL_NOTES §16 has the layer-by-layer unit table).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <type_traits>

#include "util/time.h"

namespace bolot {

/// A size in whole bytes (wire sizes: payload + headers).  Value-semantic,
/// totally ordered, no implicit construction from raw integers.
class ByteSize {
 public:
  constexpr ByteSize() = default;
  /// Explicit: `ByteSize s = 1500;` must not compile (is the 1500 bytes
  /// or bits?).  Pinned by tests/compile_fail/bytesize_implicit_int.cc.
  constexpr explicit ByteSize(std::int64_t bytes) : bytes_(bytes) {}

  static constexpr ByteSize bytes(std::int64_t n) { return ByteSize(n); }
  static constexpr ByteSize zero() { return ByteSize(0); }

  constexpr std::int64_t count() const { return bytes_; }
  /// The exact bit count (for rate math; Duration-producing callers want
  /// Bandwidth::transmission_time instead).
  constexpr std::int64_t bit_count() const { return bytes_ * 8; }

  friend constexpr auto operator<=>(ByteSize, ByteSize) = default;

 private:
  std::int64_t bytes_ = 0;
};

/// A size in bits.  Exists so formulas that are naturally in bits (the
/// paper's P, the model's batch sizes) can say so in their types; mixing
/// it up with ByteSize is a compile error (pinned by
/// tests/compile_fail/bitsize_where_bytesize.cc and
/// bytesize_where_bitsize.cc), and widening bytes is the named BitSize::of.
class BitSize {
 public:
  constexpr BitSize() = default;
  /// Explicit for the same reason as ByteSize.  Pinned by
  /// tests/compile_fail/bitsize_implicit_int.cc.
  constexpr explicit BitSize(std::int64_t bits) : bits_(bits) {}

  static constexpr BitSize bits(std::int64_t n) { return BitSize(n); }
  static constexpr BitSize of(ByteSize b) { return BitSize(b.bit_count()); }
  static constexpr BitSize zero() { return BitSize(0); }

  constexpr std::int64_t count() const { return bits_; }

  friend constexpr auto operator<=>(BitSize, BitSize) = default;

 private:
  std::int64_t bits_ = 0;
};

/// A transmission rate in bits per second, stored as the same double the
/// raw `rate_bps` fields held, so every formula reading `.bps()` computes
/// bit-for-bit what it did before the refactor.  Negative values are
/// representable (rate *deltas*, e.g. FluidAggregate::adjust_rate);
/// transmission_time() enforces positivity exactly where the old helper
/// did.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  /// Explicit: `Bandwidth b = 1e6;` must not compile (bps or Bps?).
  /// Pinned by tests/compile_fail/bandwidth_implicit_double.cc.
  constexpr explicit Bandwidth(double bits_per_second)
      : bps_(bits_per_second) {}

  static constexpr Bandwidth bps(double v) { return Bandwidth(v); }
  static constexpr Bandwidth kbps(double v) { return Bandwidth(v * 1e3); }
  static constexpr Bandwidth mbps(double v) { return Bandwidth(v * 1e6); }
  static constexpr Bandwidth zero() { return Bandwidth(0.0); }

  constexpr double bps() const { return bps_; }
  constexpr bool is_positive() const { return bps_ > 0.0; }

  /// Time to serialize `size` onto this wire, rounded to the nearest
  /// nanosecond — the exact computation of the legacy
  /// transmission_time(bits, bps) helper, including its domain checks
  /// (tests/util/units_test.cpp pins equality over 10^6 random pairs).
  constexpr Duration transmission_time(ByteSize size) const {
    return transmission_time(BitSize::of(size));
  }
  constexpr Duration transmission_time(BitSize size) const {
    if (size.count() < 0) {
      throw std::invalid_argument("transmission_time: bits < 0");
    }
    if (bps_ <= 0.0) {
      throw std::invalid_argument("transmission_time: rate must be positive");
    }
    return Duration::seconds(static_cast<double>(size.count()) / bps_);
  }

  friend constexpr auto operator<=>(Bandwidth, Bandwidth) = default;

  friend constexpr Bandwidth operator*(Bandwidth a, double k) {
    return Bandwidth(a.bps_ * k);
  }

 private:
  double bps_ = 0.0;
};

/// A probability, checked into [0, 1] at construction (a NaN fails the
/// range comparison and is rejected too).  The check runs at every
/// construction — probabilities are built at configuration time, never on
/// the per-packet path, so there is nothing to elide — and in a constexpr
/// context an out-of-range value is a *compile* error
/// (tests/compile_fail/probability_out_of_range.cc).
class Probability {
 public:
  constexpr Probability() = default;
  /// Explicit AND checked: `Probability p = 0.97;` must not compile
  /// (pinned by tests/compile_fail/probability_implicit_double.cc), and
  /// `Probability(1.5)` / `Probability(nan)` throw.
  constexpr explicit Probability(double p) : p_(p) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument("Probability: value outside [0, 1]");
    }
  }

  /// The checked constructor under the name tools/lint_static.py audits
  /// for: every Probability-typed field must trace to one of these.
  static constexpr Probability checked(double p) { return Probability(p); }
  static constexpr Probability zero() { return Probability(0.0); }
  static constexpr Probability one() { return Probability(1.0); }

  constexpr double value() const { return p_; }
  constexpr bool is_zero() const { return p_ == 0.0; }

  /// 1 - p, exact for the representable endpoints.
  constexpr Probability complement() const { return Probability(1.0 - p_); }

  friend constexpr auto operator<=>(Probability, Probability) = default;

 private:
  double p_ = 0.0;
};

// Zero-overhead contract: every unit is exactly its underlying scalar —
// same size, trivially copyable, nothing to allocate or destroy — so a
// struct holding them has the layout it had with raw fields, and passing
// them by value costs one register.
static_assert(sizeof(ByteSize) == sizeof(std::int64_t));
static_assert(sizeof(BitSize) == sizeof(std::int64_t));
static_assert(sizeof(Bandwidth) == sizeof(double));
static_assert(sizeof(Probability) == sizeof(double));
static_assert(std::is_trivially_copyable_v<ByteSize> &&
              std::is_trivially_copyable_v<BitSize> &&
              std::is_trivially_copyable_v<Bandwidth> &&
              std::is_trivially_copyable_v<Probability>);
static_assert(std::is_trivially_destructible_v<ByteSize> &&
              std::is_trivially_destructible_v<Bandwidth> &&
              std::is_trivially_destructible_v<Probability>);
static_assert(std::is_standard_layout_v<ByteSize> &&
              std::is_standard_layout_v<BitSize> &&
              std::is_standard_layout_v<Bandwidth> &&
              std::is_standard_layout_v<Probability>);

}  // namespace bolot

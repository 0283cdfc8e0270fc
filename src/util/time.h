// Fixed-point time for simulation and measurement.
//
// All simulator and analysis code uses Duration, a strong wrapper around a
// signed 64-bit nanosecond count.  Integer nanoseconds keep event ordering
// exact (no floating-point drift over a 10-minute run) while still covering
// ~292 years of range.  Floating-point accessors are provided for analysis
// code that works in milliseconds, the paper's natural unit.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <type_traits>

namespace bolot {

/// A signed time span (or absolute simulation time) with nanosecond
/// resolution.  Value-semantic, trivially copyable, totally ordered.
class Duration {
 public:
  constexpr Duration() = default;

  /// Named constructors.  Double-valued inputs are rounded to the nearest
  /// nanosecond.
  static constexpr Duration nanos(std::int64_t ns) { return Duration(ns); }
  static constexpr Duration micros(double us) {
    return Duration(round_ns(us * 1e3));
  }
  static constexpr Duration millis(double ms) {
    return Duration(round_ns(ms * 1e6));
  }
  static constexpr Duration seconds(double s) {
    return Duration(round_ns(s * 1e9));
  }
  static constexpr Duration minutes(double m) { return seconds(m * 60.0); }

  static constexpr Duration zero() { return Duration(0); }

  constexpr std::int64_t count_nanos() const { return ns_; }
  constexpr double micros() const { return static_cast<double>(ns_) * 1e-3; }
  constexpr double millis() const { return static_cast<double>(ns_) * 1e-6; }
  constexpr double seconds() const { return static_cast<double>(ns_) * 1e-9; }

  constexpr bool is_zero() const { return ns_ == 0; }
  constexpr bool is_negative() const { return ns_ < 0; }

  friend constexpr auto operator<=>(Duration, Duration) = default;

  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration(a.ns_ + b.ns_);
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration(a.ns_ - b.ns_);
  }
  constexpr Duration& operator+=(Duration other) {
    ns_ += other.ns_;
    return *this;
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  friend constexpr Duration operator*(Duration a, T k) {
    if constexpr (std::is_integral_v<T>) {
      return Duration(a.ns_ * static_cast<std::int64_t>(k));
    } else {
      return Duration(round_ns(static_cast<double>(a.ns_) * k));
    }
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  friend constexpr Duration operator*(T k, Duration a) {
    return a * k;
  }
  friend constexpr Duration operator/(Duration a, std::int64_t k) {
    return Duration(a.ns_ / k);
  }
  /// Ratio of two spans, e.g. how many probe intervals fit in a run.
  friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }

  /// "123.456ms"-style rendering, unit chosen by magnitude.
  std::string to_string() const;

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}

  static constexpr std::int64_t round_ns(double ns) {
    return static_cast<std::int64_t>(ns < 0 ? ns - 0.5 : ns + 0.5);
  }

  std::int64_t ns_ = 0;
};

/// Absolute simulation time is a Duration since the start of the run.
using SimTime = Duration;

}  // namespace bolot

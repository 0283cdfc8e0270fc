// Deterministic pseudo-random number generation for simulation.
//
// We do not use std::mt19937 because its state is large and its stream is not
// trivially splittable.  Xoshiro256** is small, fast, passes BigCrush, and
// SplitMix64 seeding lets every traffic source derive an independent stream
// from one experiment seed, which keeps whole experiments reproducible from a
// single integer.
#pragma once

#include <array>
#include <cstdint>

#include "util/time.h"

namespace bolot {

/// SplitMix64: used to expand a single seed into generator state and to
/// derive independent child seeds.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derives the seed for stream `stream_index` of a family rooted at
/// `base_seed`.  Two SplitMix64 passes (one over the base, one over the
/// mix of base hash and index) decorrelate streams even for adjacent
/// indices and adjacent bases, so a sweep runner can hand run k the seed
/// `derive_stream_seed(base, k)` and get bit-identical per-run streams
/// regardless of how runs are scheduled across threads.
std::uint64_t derive_stream_seed(std::uint64_t base_seed,
                                 std::uint64_t stream_index);

/// Xoshiro256** with convenience distributions used by the traffic models.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derive an independent child generator (for per-source streams).
  Rng split();

  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n);
  /// Bernoulli trial.
  bool chance(double p);
  /// Exponential with the given mean (> 0).
  double exponential(double mean);
  /// Pareto with shape alpha (> 0) and scale xm (> 0); heavy-tailed sizes.
  double pareto(double alpha, double xm);
  /// Geometric on {1, 2, ...} with success probability p in (0, 1].
  std::uint64_t geometric(double p);

  /// Exponentially distributed time span with the given mean.
  Duration exponential_time(Duration mean);

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace bolot

#include "util/rng.h"

#include <cmath>
#include <stdexcept>

namespace bolot {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t derive_stream_seed(std::uint64_t base_seed,
                                 std::uint64_t stream_index) {
  SplitMix64 base(base_seed);
  // Offset the index by the golden-ratio constant so stream 0 of base b is
  // unrelated to stream b of base 0.
  SplitMix64 mixed(base.next() ^
                   (stream_index + 0x9E3779B97F4A7C15ULL));
  return mixed.next();
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

Rng Rng::split() { return Rng(next_u64()); }

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  if (!(lo <= hi)) throw std::invalid_argument("uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("uniform_int: n == 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) throw std::invalid_argument("exponential: mean <= 0");
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return -mean * std::log(u);
}

double Rng::pareto(double alpha, double xm) {
  if (alpha <= 0.0 || xm <= 0.0) {
    throw std::invalid_argument("pareto: parameters must be positive");
  }
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

std::uint64_t Rng::geometric(double p) {
  if (!(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("geometric: p must be in (0, 1]");
  }
  if (p == 1.0) return 1;
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return 1 + static_cast<std::uint64_t>(std::log(u) / std::log1p(-p));
}

Duration Rng::exponential_time(Duration mean) {
  return Duration::seconds(exponential(mean.seconds()));
}

}  // namespace bolot

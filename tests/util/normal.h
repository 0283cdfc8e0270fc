// Gaussian samples for tests that need noise.
#pragma once

#include <cmath>
#include <numbers>

#include "util/rng.h"

namespace bolot {

/// A normal(mean, stddev) draw via Box-Muller, two uniforms per call.
inline double normal(Rng& rng, double mean, double stddev) {
  double u1;
  do {
    u1 = rng.uniform();
  } while (u1 == 0.0);
  const double u2 = rng.uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

}  // namespace bolot

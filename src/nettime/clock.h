// Clock abstractions used by both the real-socket prober and the simulator.
//
// The paper's source host was a DECstation 5000 with a 3.906 ms clock
// resolution, which produces the visible banding in its phase plots
// (Figs. 5-6).  quantize() reproduces that behaviour on any reading.
#pragma once

#include <memory>

#include "util/time.h"

namespace bolot {

/// A monotonic clock returning time since an arbitrary (fixed) epoch.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual Duration now() const = 0;
};

/// Wraps the POSIX CLOCK_MONOTONIC high-resolution clock.
class SystemClock final : public Clock {
 public:
  Duration now() const override;
};

/// Floors a reading `t` to a multiple of `tick` (> 0), as a coarse
/// hardware clock such as the paper's DECstation 5000 (tick = 3.906 ms)
/// or the UMd host (tick ~ 3 ms) reports it.
Duration quantize(Duration t, Duration tick);

/// The paper's DECstation 5000 clock tick.
inline constexpr Duration kDecstationTick = Duration::micros(3906.0);

}  // namespace bolot

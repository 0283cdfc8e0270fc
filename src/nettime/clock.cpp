#include "nettime/clock.h"

#include <ctime>
#include <stdexcept>

namespace bolot {

Duration SystemClock::now() const {
  timespec ts{};
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_MONOTONIC) failed");
  }
  return Duration::nanos(static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
                         ts.tv_nsec);
}

Duration quantize(Duration t, Duration tick) {
  const std::int64_t ticks = t.count_nanos() / tick.count_nanos();
  return Duration::nanos(ticks * tick.count_nanos());
}

}  // namespace bolot

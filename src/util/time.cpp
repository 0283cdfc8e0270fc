#include "util/time.h"

#include <cmath>
#include <cstdio>

namespace bolot {

std::string Duration::to_string() const {
  char buf[64];
  const double abs_ns = std::abs(static_cast<double>(ns_));
  if (abs_ns < 1e3) {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(ns_));
  } else if (abs_ns < 1e6) {
    std::snprintf(buf, sizeof buf, "%.3fus", micros());
  } else if (abs_ns < 1e9) {
    std::snprintf(buf, sizeof buf, "%.3fms", millis());
  } else {
    std::snprintf(buf, sizeof buf, "%.3fs", seconds());
  }
  return buf;
}

}  // namespace bolot

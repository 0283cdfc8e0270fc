#include "model/kia.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bolot::model {

double KiaDelay::jitter_seconds() const {
  return std::sqrt(std::max(0.0, variance_seconds2));
}

double md1_mean_wait_seconds(double rho, double service_seconds) {
  if (!(rho >= 0.0 && rho < 1.0 && service_seconds >= 0.0 &&
        std::isfinite(service_seconds))) {
    throw std::invalid_argument(
        "md1_mean_wait_seconds: need rho in [0, 1) and finite service >= 0");
  }
  return rho * service_seconds / (2.0 * (1.0 - rho));
}

double md1_wait_second_moment(double rho, double service_seconds) {
  const double mean = md1_mean_wait_seconds(rho, service_seconds);
  return 2.0 * mean * mean +
         rho * service_seconds * service_seconds / (3.0 * (1.0 - rho));
}

KiaDelay kia_path_delay(const std::vector<KiaHop>& hops, ByteSize probe_wire,
                        ByteSize background_packet, double max_rho) {
  if (probe_wire <= ByteSize::zero() || background_packet <= ByteSize::zero()) {
    throw std::invalid_argument("kia_path_delay: non-positive packet size");
  }
  if (!(max_rho > 0.0 && max_rho < 1.0)) {
    throw std::invalid_argument("kia_path_delay: max_rho outside (0, 1)");
  }
  KiaDelay delay;
  for (const KiaHop& hop : hops) {
    if (!hop.capacity.is_positive()) {
      throw std::invalid_argument("kia_path_delay: non-positive capacity");
    }
    const double rho = std::min(
        max_rho, std::max(0.0, hop.background.bps() / hop.capacity.bps()));
    const double service_background =
        static_cast<double>(background_packet.bit_count()) / hop.capacity.bps();
    const double service_probe =
        static_cast<double>(probe_wire.bit_count()) / hop.capacity.bps();
    const double mean_wait = md1_mean_wait_seconds(rho, service_background);
    const double second = md1_wait_second_moment(rho, service_background);
    delay.mean_seconds += mean_wait + service_probe + hop.propagation.seconds();
    delay.variance_seconds2 += second - mean_wait * mean_wait;
  }
  return delay;
}

}  // namespace bolot::model

#include "sim/channel.h"

#include <stdexcept>

namespace bolot::sim {

GilbertChannelConfig GilbertChannelConfig::from_loss_targets(Probability ulp,
                                                             double plg) {
  if (ulp.is_zero() || ulp >= Probability::one()) {
    throw std::invalid_argument(
        "GilbertChannelConfig: target ulp must be in (0, 1)");
  }
  if (!(plg >= 1.0)) {
    throw std::invalid_argument("GilbertChannelConfig: target plg must be >= 1");
  }
  const double q = 1.0 / plg;
  const double p = q * ulp.value() / (1.0 - ulp.value());
  if (p > 1.0) {
    throw std::invalid_argument(
        "GilbertChannelConfig: target (ulp, plg) pair is infeasible: p > 1");
  }
  return {Probability::checked(p), Probability::checked(q)};
}

GilbertChannel::GilbertChannel(const GilbertChannelConfig& config, Rng rng)
    : good_threshold_(config.p.complement().value()),
      bad_threshold_(config.q.value()),
      rng_(rng) {}

}  // namespace bolot::sim

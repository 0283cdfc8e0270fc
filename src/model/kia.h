// Kleinrock-independence path-delay predictor (MODEL_NOTES §15).
//
// Treats every hop of a path as an independent M/D/1 queue: Poisson
// background arrivals of fixed-size packets at the hop's mean fluid
// demand, deterministic service at the hop capacity.  Under the
// independence assumption the path delay is the sum of per-hop waits,
// transmissions and propagations, so mean and variance add.  This is the
// analytic cross-check for the hybrid fluid engine's kMd1Wait mode, whose
// sampled waits match the same first two M/D/1 moments per hop
// (arXiv:2003.08780 applies the same construction to validate fluid
// network approximations).
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.h"
#include "util/units.h"

namespace bolot::model {

/// One directed hop as the KIA sees it.
struct KiaHop {
  Bandwidth capacity = Bandwidth::mbps(1);
  /// Mean background demand crossing the hop (the fluid aggregate rate).
  Bandwidth background = Bandwidth::zero();
  Duration propagation;
};

struct KiaDelay {
  double mean_seconds = 0.0;
  double variance_seconds2 = 0.0;
  double jitter_seconds() const;
};

/// Pollaczek-Khinchine moments of the M/D/1 waiting time at utilization
/// `rho` with deterministic service `service_seconds`:
///   E[W]   = rho s / (2 (1 - rho))
///   E[W^2] = 2 E[W]^2 + rho s^2 / (3 (1 - rho))
double md1_mean_wait_seconds(double rho, double service_seconds);
double md1_wait_second_moment(double rho, double service_seconds);

/// Path delay of one `probe_wire` packet crossing `hops`, each loaded by
/// Poisson background of `background_packet` packets.  `max_rho` caps the
/// per-hop utilization (mirror of the fluid engine's residual-rate floor
/// of 1 % of capacity, which keeps oversubscribed hops finite).
KiaDelay kia_path_delay(const std::vector<KiaHop>& hops, ByteSize probe_wire,
                        ByteSize background_packet, double max_rho = 0.99);

}  // namespace bolot::model

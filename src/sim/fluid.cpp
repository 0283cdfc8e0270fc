#include "sim/fluid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace bolot::sim {

namespace {

/// Floor on the residual rate, as a fraction of capacity.
constexpr double kMinResidualFraction = 0.01;

}  // namespace

// ---------------------------------------------------------------------------
// FluidAggregate

FluidAggregate::FluidAggregate(Simulator& sim, FluidAggregateConfig config,
                               Rng rng)
    : sim_(sim), config_(config), rng_(rng) {
  if (!config_.capacity.is_positive()) {
    throw std::invalid_argument("FluidAggregate: capacity must be positive");
  }
  if (config_.mean_packet <= ByteSize::zero()) {
    throw std::invalid_argument(
        "FluidAggregate: mean_packet must be positive");
  }
}

void FluidAggregate::accrue(SimTime now) {
  if (now <= accrued_to_) return;
  const double share =
      std::min(fluid_rate().bps() / config_.capacity.bps(), 1.0);
  fluid_busy_ns_ +=
      share * static_cast<double>((now - accrued_to_).count_nanos());
  accrued_to_ = now;
}

void FluidAggregate::add_base_rate(Bandwidth rate) {
  if (rate < Bandwidth::zero()) {
    throw std::invalid_argument("FluidAggregate: negative base rate");
  }
  accrue(sim_.now());
  base_rate_bps_ += rate.bps();
}

void FluidAggregate::adjust_rate(Bandwidth delta) {
  accrue(sim_.now());
  dynamic_rate_bps_ += delta.bps();
  // Sums of float-ish deltas can undershoot zero by an ulp when the last
  // flow turns off; clamp so residual() never exceeds capacity.
  if (dynamic_rate_bps_ < 0.0 &&
      dynamic_rate_bps_ > -1e-6 * config_.capacity.bps()) {
    dynamic_rate_bps_ = 0.0;
  }
  ++rate_changes_;
}

Bandwidth FluidAggregate::fluid_rate() const {
  return Bandwidth::bps(std::max(0.0, base_rate_bps_ + dynamic_rate_bps_));
}

Bandwidth FluidAggregate::residual() const {
  const double floor_bps = config_.capacity.bps() * kMinResidualFraction;
  return Bandwidth::bps(
      std::max(floor_bps, config_.capacity.bps() - fluid_rate().bps()));
}

double FluidAggregate::utilization(SimTime now) const {
  if (now.is_zero() || now.is_negative()) return 0.0;
  double busy_ns = fluid_busy_ns_;
  if (now > accrued_to_) {
    const double share =
        std::min(fluid_rate().bps() / config_.capacity.bps(), 1.0);
    busy_ns += share * static_cast<double>((now - accrued_to_).count_nanos());
  }
  return busy_ns / static_cast<double>(now.count_nanos());
}

Duration FluidAggregate::service_time(ByteSize size) const {
  if (config_.queue_model == FluidQueueModel::kResidualRate) {
    return residual().transmission_time(size);
  }
  return config_.capacity.transmission_time(size);
}

Duration FluidAggregate::sample_extra_wait() {
  if (config_.queue_model != FluidQueueModel::kMd1Wait) {
    return Duration::zero();
  }
  ++wait_samples_;
  // Two-moment M/D/1 wait fit (MODEL_NOTES §15): with load rho and
  // deterministic service s of the displaced packets,
  //   E[W]   = rho s / (2 (1-rho))
  //   E[W^2] = 2 E[W]^2 + rho s^2 / (3 (1-rho))
  // modeled as W = 0 with prob 1-a, Exp(m) with prob a, where matching
  // both moments gives m = E[W^2] / (2 E[W]) and a = E[W] / m <= 1.
  const double rho =
      std::min(fluid_rate().bps() / config_.capacity.bps(),
               1.0 - kMinResidualFraction);
  if (rho <= 0.0) return Duration::zero();
  const double s = static_cast<double>(config_.mean_packet.bit_count()) /
                   config_.capacity.bps();
  const double mean_w = rho * s / (2.0 * (1.0 - rho));
  const double second = 2.0 * mean_w * mean_w +
                        rho * s * s / (3.0 * (1.0 - rho));
  const double m = second / (2.0 * mean_w);
  const double a = mean_w / m;
  if (!rng_.chance(a)) return Duration::zero();
  return Duration::seconds(rng_.exponential(m));
}

void FluidAggregate::audit_verify() const {
  SIM_CHECK(base_rate_bps_ >= 0.0 &&
                base_rate_bps_ + dynamic_rate_bps_ >=
                    -1e-6 * config_.capacity.bps(),
            "FluidAggregate: demand went negative (base %.3f + dynamic %.3f "
            "bps)",
            base_rate_bps_, dynamic_rate_bps_);
  SIM_CHECK(std::isfinite(base_rate_bps_) && std::isfinite(dynamic_rate_bps_),
            "FluidAggregate: non-finite demand");
  SIM_CHECK(residual().bps() >=
                config_.capacity.bps() * kMinResidualFraction * 0.999,
            "FluidAggregate: residual %.3f bps fell through the floor",
            residual().bps());
  SIM_CHECK(fluid_busy_ns_ >= 0.0 && accrued_to_ <= sim_.now(),
            "FluidAggregate: utilization integral ran backwards");
}

// ---------------------------------------------------------------------------
// FluidFlow

FluidFlow::FluidFlow(Simulator& sim, Bandwidth mean_rate, std::size_t states,
                     Duration mean_holding, Rng rng)
    : sim_(sim), mean_rate_(mean_rate), mean_holding_(mean_holding),
      rng_(rng) {
  // State i's rate is the mean x (1 + kEnvelopeSwing u_i), u_i in [-1, 1].
  constexpr double kEnvelopeSwing = 0.5;
  if (states < 2) {
    throw std::invalid_argument("FluidFlow: need >= 2 states");
  }
  if (mean_rate < Bandwidth::zero()) {
    throw std::invalid_argument("FluidFlow: negative mean rate");
  }
  if (mean_holding <= Duration::zero()) {
    throw std::invalid_argument("FluidFlow: non-positive holding time");
  }
  state_rate_fraction_.resize(states);
  for (std::size_t i = 0; i < states; ++i) {
    const double u =
        2.0 * static_cast<double>(i) / static_cast<double>(states - 1) - 1.0;
    state_rate_fraction_[i] = 1.0 + kEnvelopeSwing * u;
  }
}

void FluidFlow::attach(FluidAggregate& aggregate) {
  if (started_) {
    throw std::logic_error("FluidFlow: attach after start");
  }
  aggregates_.push_back(&aggregate);
}

void FluidFlow::set_rate(double bps) {
  const double delta = bps - rate_bps_;
  if (delta == 0.0) return;
  rate_bps_ = bps;
  ++edges_;
  for (FluidAggregate* aggregate : aggregates_) {
    aggregate->adjust_rate(Bandwidth::bps(delta));
  }
}

void FluidFlow::start(SimTime at) {
  if (started_) throw std::logic_error("FluidFlow: started twice");
  started_ = true;
  sim_.schedule_at(at, [this] {
    set_rate(mean_rate_.bps() * state_rate_fraction_[state_]);
    on_transition(/*rearm=*/false);
  });
}

void FluidFlow::on_transition(bool rearm) {
  // Hold in the current state, then jump.  The holding draw happens at
  // entry so the trajectory is a pure function of the rng stream.
  const Duration hold = rng_.exponential_time(mean_holding_);
  const auto jump = [this] {
    // Uniform jumps to every other state: the stationary distribution is
    // uniform, so the stationary mean fraction is exactly 1.0.
    const std::size_t k = state_rate_fraction_.size();
    const double p = 1.0 / static_cast<double>(k - 1);
    const double u = rng_.uniform();
    double cumulative = 0.0;
    std::size_t next = k - 1;  // guard against rounding at u ~ 1
    for (std::size_t j = 0; j < k; ++j) {
      if (j == state_) continue;
      cumulative += p;
      if (u < cumulative) {
        next = j;
        break;
      }
    }
    state_ = next;
    set_rate(mean_rate_.bps() * state_rate_fraction_[state_]);
    on_transition(/*rearm=*/true);
  };
  if (rearm) {
    sim_.rearm_in(hold);
  } else {
    sim_.schedule_in(hold, jump);
  }
}

void FluidFlow::audit_verify() const {
  SIM_CHECK(rate_bps_ >= 0.0 && std::isfinite(rate_bps_),
            "FluidFlow: rate %.3f bps out of range", rate_bps_);
  SIM_CHECK(state_ < state_rate_fraction_.size(),
            "FluidFlow: state %zu out of range", state_);
}

}  // namespace bolot::sim

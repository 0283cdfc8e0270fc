#include "sim/fluid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bolot::sim {

namespace {

/// Cap on the load the M/D/1 wait is sampled at: an oversubscribed
/// aggregate gives long waits, never an unbounded one.
constexpr double kMaxLoad = 1.0 - 0.01;

/// State i's rate as a fraction of the mean: 1 + kEnvelopeSwing u_i, with
/// u_i in [-1, 1].
double state_fraction(std::size_t i, std::size_t states) {
  constexpr double kEnvelopeSwing = 0.5;
  const double u =
      2.0 * static_cast<double>(i) / static_cast<double>(states - 1) - 1.0;
  return 1.0 + kEnvelopeSwing * u;
}

}  // namespace

FluidAggregate::FluidAggregate(Simulator& sim, Bandwidth capacity,
                               Bandwidth mean_rate,
                               std::size_t envelope_states,
                               Duration mean_holding, Rng wait_rng,
                               Rng envelope_rng)
    : sim_(sim),
      capacity_(capacity),
      wait_rng_(wait_rng),
      accrued_to_(sim.now()),
      mean_rate_(mean_rate),
      states_(envelope_states),
      mean_holding_(mean_holding),
      envelope_rng_(envelope_rng) {
  if (!(mean_rate.bps() >= 0.0 && std::isfinite(mean_rate.bps()))) {
    throw std::invalid_argument(
        "FluidAggregate: mean rate must be finite and >= 0");
  }
  if (states_ == 0) {
    rate_bps_ = mean_rate.bps();
    return;
  }
  if (states_ < 2) {
    throw std::invalid_argument(
        "FluidAggregate: envelope needs 0 (constant) or >= 2 states");
  }
  if (!(mean_holding > Duration::zero())) {
    throw std::invalid_argument(
        "FluidAggregate: envelope holding time must be positive");
  }
  sim_.schedule_at(sim_.now(), [this] {
    enter(0);
    on_transition(/*rearm=*/false);
  });
}

void FluidAggregate::accrue(SimTime now) {
  if (now <= accrued_to_) return;
  const double share = std::min(fluid_rate().bps() / capacity_.bps(), 1.0);
  fluid_busy_ns_ +=
      share * static_cast<double>((now - accrued_to_).count_nanos());
  accrued_to_ = now;
}

void FluidAggregate::enter(std::size_t state) {
  state_ = state;
  const double bps = mean_rate_.bps() * state_fraction(state, states_);
  const double delta = bps - state_bps_;
  if (delta == 0.0) return;
  state_bps_ = bps;
  accrue(sim_.now());
  rate_bps_ += delta;
  // Sums of float-ish deltas can undershoot zero by an ulp when the demand
  // falls to nothing; snap that to an exact zero demand.
  if (rate_bps_ < 0.0 && rate_bps_ > -1e-6 * capacity_.bps()) {
    rate_bps_ = 0.0;
  }
}

Bandwidth FluidAggregate::fluid_rate() const {
  return Bandwidth::bps(std::max(0.0, rate_bps_));
}

double FluidAggregate::utilization(SimTime now) const {
  if (now.is_zero() || now.is_negative()) return 0.0;
  double busy_ns = fluid_busy_ns_;
  if (now > accrued_to_) {
    const double share = std::min(fluid_rate().bps() / capacity_.bps(), 1.0);
    busy_ns += share * static_cast<double>((now - accrued_to_).count_nanos());
  }
  return busy_ns / static_cast<double>(now.count_nanos());
}

Duration FluidAggregate::sample_extra_wait() {
  // Two-moment M/D/1 wait fit (MODEL_NOTES §15): with load rho and
  // deterministic service s of the displaced packets,
  //   E[W]   = rho s / (2 (1-rho))
  //   E[W^2] = 2 E[W]^2 + rho s^2 / (3 (1-rho))
  // modeled as W = 0 with prob 1-a, Exp(m) with prob a, where matching
  // both moments gives m = E[W^2] / (2 E[W]) and a = E[W] / m <= 1.
  const double rho = std::min(fluid_rate().bps() / capacity_.bps(), kMaxLoad);
  if (rho <= 0.0) return Duration::zero();
  const double s =
      static_cast<double>(kBackgroundPacket.bit_count()) / capacity_.bps();
  const double mean_w = rho * s / (2.0 * (1.0 - rho));
  const double second = 2.0 * mean_w * mean_w +
                        rho * s * s / (3.0 * (1.0 - rho));
  const double m = second / (2.0 * mean_w);
  const double a = mean_w / m;
  if (!wait_rng_.chance(a)) return Duration::zero();
  return Duration::seconds(wait_rng_.exponential(m));
}

void FluidAggregate::on_transition(bool rearm) {
  // Hold in the current state, then jump.  The holding draw happens at
  // entry so the trajectory is a pure function of the rng stream.
  const Duration hold = envelope_rng_.exponential_time(mean_holding_);
  const auto jump = [this] {
    // Uniform jumps to every other state: the stationary distribution is
    // uniform, so the stationary mean fraction is exactly 1.0.
    const double p = 1.0 / static_cast<double>(states_ - 1);
    const double u = envelope_rng_.uniform();
    double cumulative = 0.0;
    std::size_t next = states_ - 1;  // guard against rounding at u ~ 1
    for (std::size_t j = 0; j < states_; ++j) {
      if (j == state_) continue;
      cumulative += p;
      if (u < cumulative) {
        next = j;
        break;
      }
    }
    enter(next);
    on_transition(/*rearm=*/true);
  };
  if (rearm) {
    sim_.rearm_in(hold);
  } else {
    sim_.schedule_in(hold, jump);
  }
}

void FluidAggregate::audit_verify() const {
  SIM_CHECK(rate_bps_ >= -1e-6 * capacity_.bps() && std::isfinite(rate_bps_),
            "FluidAggregate: demand %.3f bps out of range", rate_bps_);
  SIM_CHECK(state_bps_ >= 0.0 && std::isfinite(state_bps_) &&
                (states_ == 0 || state_ < states_),
            "FluidAggregate: envelope state %zu at %.3f bps out of range",
            state_, state_bps_);
  SIM_CHECK(fluid_busy_ns_ >= 0.0 && accrued_to_ <= sim_.now(),
            "FluidAggregate: utilization integral ran backwards");
}

}  // namespace bolot::sim

#include "sim/traffic.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace bolot::sim {

TrafficSource::TrafficSource(Simulator& sim, Network& net, NodeId src,
                             NodeId dst, std::uint32_t flow, PacketKind kind,
                             Rng rng)
    : sim_(sim),
      net_(net),
      src_(src),
      dst_(dst),
      flow_(flow),
      kind_(kind),
      rng_(rng) {}

void TrafficSource::start(SimTime at) {
  if (running_) return;
  running_ = true;
  sim_.schedule_at(at, [this] { step(); });
}

void TrafficSource::emit(ByteSize size) {
  Packet p;
  p.id = (static_cast<std::uint64_t>(flow_) << 40) + sent_;
  p.kind = kind_;
  p.flow = flow_;
  p.size_bytes = size.count();
  p.src = src_;
  p.dst = dst_;
  ++sent_;
  net_.send(std::move(p));
}

void TrafficSource::schedule_step(Duration delay) {
  // step() only ever runs from its own scheduled event, so the next step
  // can re-arm that event in place.
  sim_.rearm_in(delay);
}

PoissonSource::PoissonSource(Simulator& sim, Network& net, NodeId src,
                             NodeId dst, std::uint32_t flow, PacketKind kind,
                             Rng rng, Duration mean_interarrival,
                             ByteSize packet)
    : TrafficSource(sim, net, src, dst, flow, kind, rng),
      mean_interarrival_(mean_interarrival),
      packet_(packet) {
  if (mean_interarrival <= Duration::zero()) {
    throw std::invalid_argument("PoissonSource: mean must be positive");
  }
}

void PoissonSource::step() {
  emit(packet_);
  schedule_step(rng().exponential_time(mean_interarrival_));
}

BurstSource::BurstSource(Simulator& sim, Network& net, NodeId src, NodeId dst,
                         std::uint32_t flow, PacketKind kind, Rng rng,
                         BurstConfig config)
    : TrafficSource(sim, net, src, dst, flow, kind, rng), config_(config) {
  if (config_.mean_burst_gap <= Duration::zero()) {
    throw std::invalid_argument("BurstSource: burst gap must be positive");
  }
  if (!(std::isfinite(config_.mean_burst_packets) &&
        config_.mean_burst_packets >= 1.0)) {
    throw std::invalid_argument(
        "BurstSource: mean_burst_packets must be finite and >= 1");
  }
}

void BurstSource::step() {
  if (remaining_in_burst_ == 0) {
    // Start of a new burst: draw its length (geometric, mean m implies
    // success probability 1/m).
    remaining_in_burst_ = rng().geometric(1.0 / config_.mean_burst_packets);
  }
  emit(config_.packet);
  --remaining_in_burst_;
  if (remaining_in_burst_ > 0) {
    schedule_step(config_.in_burst_spacing);
  } else {
    schedule_step(rng().exponential_time(config_.mean_burst_gap));
  }
}

FtpSessionSource::FtpSessionSource(Simulator& sim, Network& net, NodeId src,
                                   NodeId dst, std::uint32_t flow,
                                   PacketKind kind, Rng rng,
                                   FtpSessionConfig config)
    : TrafficSource(sim, net, src, dst, flow, kind, rng), config_(config) {
  if (config_.mean_session <= Duration::zero() ||
      config_.mean_idle <= Duration::zero()) {
    throw std::invalid_argument("FtpSessionSource: periods must be positive");
  }
  // NaN fails every comparison and would reach the pace interval's
  // integer cast; an infinite paced rate (load or bottleneck) paces at
  // zero spacing, a session that never lets simulated time advance.
  const Bandwidth paced = config_.bottleneck * config_.pace_load;
  if (!(config_.pace_load > 0.0 && paced.is_positive() &&
        std::isfinite(paced.bps()))) {
    throw std::invalid_argument(
        "FtpSessionSource: pacing must be finite and positive");
  }
  pace_interval_ = paced.transmission_time(config_.packet);
}

void FtpSessionSource::step() {
  if (!in_session_) {
    in_session_ = true;
    session_until_ = sim().now() + rng().exponential_time(config_.mean_session);
  }
  emit(config_.packet);
  if (sim().now() + pace_interval_ <= session_until_) {
    schedule_step(pace_interval_);
  } else {
    in_session_ = false;
    schedule_step(rng().exponential_time(config_.mean_idle));
  }
}

ModulatedPoissonSource::ModulatedPoissonSource(Simulator& sim, Network& net,
                                               NodeId src, NodeId dst,
                                               std::uint32_t flow,
                                               PacketKind kind, Rng rng,
                                               ModulatedPoissonConfig config)
    : TrafficSource(sim, net, src, dst, flow, kind, rng), config_(config) {
  if (config_.mean_interarrival <= Duration::zero() ||
      config_.period <= Duration::zero()) {
    throw std::invalid_argument("ModulatedPoissonSource: bad timing");
  }
  if (!(config_.relative_amplitude >= 0.0 &&
        config_.relative_amplitude < 1.0)) {
    throw std::invalid_argument(
        "ModulatedPoissonSource: amplitude outside [0, 1)");
  }
}

void ModulatedPoissonSource::step() {
  emit(config_.packet);
  // Thinning: propose from the peak rate, accept with rate(t)/peak; on
  // rejection, keep proposing (bounded loop: acceptance >= (1-a)/(1+a)).
  const double base_rate = 1.0 / config_.mean_interarrival.seconds();
  const double peak_rate = base_rate * (1.0 + config_.relative_amplitude);
  Duration gap;
  for (;;) {
    gap += Duration::seconds(rng().exponential(1.0 / peak_rate));
    const double t = (sim().now() + gap).seconds();
    const double rate =
        base_rate * (1.0 + config_.relative_amplitude *
                               std::sin(2.0 * std::numbers::pi * t /
                                        config_.period.seconds()));
    if (rng().uniform() * peak_rate <= rate) break;
  }
  schedule_step(gap);
}

OnOffSource::OnOffSource(Simulator& sim, Network& net, NodeId src, NodeId dst,
                         std::uint32_t flow, PacketKind kind, Rng rng,
                         OnOffConfig config)
    : TrafficSource(sim, net, src, dst, flow, kind, rng), config_(config) {
  if (config_.mean_on <= Duration::zero() ||
      config_.mean_off <= Duration::zero() ||
      config_.on_interval <= Duration::zero()) {
    throw std::invalid_argument("OnOffSource: periods must be positive");
  }
  // A NaN or infinite shape would otherwise pass to the first Pareto
  // draw and throw mid-run.
  if (!(config_.pareto_shape >= 0.0 && std::isfinite(config_.pareto_shape))) {
    throw std::invalid_argument(
        "OnOffSource: pareto_shape must be finite and >= 0");
  }
}

namespace {

/// Draws a period with the configured mean: exponential by default,
/// Pareto(shape) when requested (scale = mean * (shape-1)/shape keeps the
/// mean for shape > 1).
Duration draw_period(Rng& rng, Duration mean, double pareto_shape) {
  if (pareto_shape <= 0.0) return rng.exponential_time(mean);
  const double shape = std::max(pareto_shape, 1.05);
  const double scale = mean.seconds() * (shape - 1.0) / shape;
  return Duration::seconds(rng.pareto(shape, scale));
}

}  // namespace

void OnOffSource::step() {
  if (!on_) {
    on_ = true;
    on_until_ = sim().now() +
                draw_period(rng(), config_.mean_on, config_.pareto_shape);
  }
  emit(config_.packet);
  if (sim().now() + config_.on_interval <= on_until_) {
    schedule_step(config_.on_interval);
  } else {
    on_ = false;
    schedule_step(
        draw_period(rng(), config_.mean_off, config_.pareto_shape));
  }
}

}  // namespace bolot::sim

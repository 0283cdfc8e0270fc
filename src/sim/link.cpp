#include "sim/link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "sim/fluid.h"

namespace bolot::sim {

Link::Link(Simulator& sim, LinkConfig config, Rng drop_rng)
    : sim_(sim), config_(std::move(config)), drop_rng_(drop_rng) {
  if (!config_.rate.is_positive()) {
    throw std::invalid_argument("Link: rate must be positive");
  }
  if (config_.buffer_packets == 0) {
    throw std::invalid_argument("Link: buffer must hold at least one packet");
  }
  if (config_.buffer_packets > kMaxBufferPackets) {
    throw std::invalid_argument("Link: buffer above kMaxBufferPackets");
  }
  // The Probability type already pins [0, 1]; a link that drops every
  // packet is additionally rejected here, as before.
  if (config_.random_drop_probability >= Probability::one()) {
    throw std::invalid_argument("Link: drop probability outside [0, 1)");
  }
  if (config_.red) {
    const RedConfig& red = *config_.red;
    if (!(red.min_threshold >= 0.0) ||
        !(red.max_threshold > red.min_threshold) ||
        red.max_probability.is_zero() ||
        !(red.weight > 0.0 && red.weight <= 1.0)) {
      throw std::invalid_argument("Link: malformed RED configuration");
    }
  }
  if (config_.channel) {
    // Split the channel's stream off the drop rng only when a channel is
    // configured: channel-free links keep their exact pre-channel streams.
    channel_.emplace(*config_.channel, drop_rng_.split());
  }
  // The buffer bound is the high-water mark by construction, so the queue
  // ring never grows after this.  The flight ring starts small and reaches
  // its own high-water mark (propagation / service time) within the first
  // busy period.
  queue_.reserve(config_.buffer_packets);
}

Link::~Link() = default;

void Link::attach_fluid(Bandwidth mean_rate, std::size_t envelope_states,
                        Duration mean_holding, Rng wait_rng,
                        Rng envelope_rng) {
  if (fluid_ != nullptr) {
    throw std::logic_error("Link: fluid aggregate already attached");
  }
  fluid_ = std::make_unique<FluidAggregate>(sim_, config_.rate, mean_rate,
                                            envelope_states, mean_holding,
                                            wait_rng, envelope_rng);
}

void Link::set_drop_hook(DropHook hook) {
  if (drop_hook_) {
    throw std::logic_error("Link " + config_.name +
                           ": drop hook already set");
  }
  drop_hook_ = std::move(hook);
}

void Link::set_delivery_hook(DeliveryHook hook) {
  if (delivery_hook_) {
    throw std::logic_error("Link " + config_.name +
                           ": delivery hook already set");
  }
  delivery_hook_ = std::move(hook);
}

void Link::set_random_drop_probability(Probability p) {
  if (p >= Probability::one()) {
    throw std::invalid_argument("Link: drop probability outside [0, 1)");
  }
  config_.random_drop_probability = p;
}

bool Link::red_admits(std::size_t queue_length) {
  const RedConfig& red = *config_.red;
  if (queue_length == 0) {
    // Idle-time correction (Floyd & Jacobson): a packet arriving to an
    // empty queue sees the average decayed by (1-w)^m for the m
    // packet-service slots the queue sat *serviceable* idle, as if m small
    // packets had arrived to an empty queue in the interim.  Paused spans
    // are excluded — see red_idle_accrued_.
    Duration idle = red_idle_accrued_;
    if (!paused_) idle += sim_.now() - idle_since_;
    const double slots = idle / service_time(kRedMeanPacket);
    if (slots > 0.0) red_avg_ *= std::pow(1.0 - red.weight, slots);
    red_idle_accrued_ = Duration::zero();
    if (!paused_) {
      idle_since_ = sim_.now();  // decayed up to now; don't decay twice
    }
  } else {
    red_avg_ = (1.0 - red.weight) * red_avg_ +
               red.weight * static_cast<double>(queue_length);
  }
  if (red_avg_ < red.min_threshold) {
    red_count_ = -1;
    return true;
  }
  if (red_avg_ >= red.max_threshold) {
    red_count_ = 0;
    return false;
  }
  ++red_count_;
  const double pb = red.max_probability.value() *
                    (red_avg_ - red.min_threshold) /
                    (red.max_threshold - red.min_threshold);
  // Uniformize inter-drop spacing (Floyd & Jacobson's count correction).
  const double denom = 1.0 - static_cast<double>(red_count_) * pb;
  const double pa = denom > 0.0 ? pb / denom : 1.0;
  if (drop_rng_.chance(pa)) {
    red_count_ = 0;
    return false;
  }
  return true;
}

void Link::enqueue(Packet&& packet) {
  ++stats_.offered;
  if (!config_.random_drop_probability.is_zero() &&
      drop_rng_.chance(config_.random_drop_probability.value())) {
    drop(std::move(packet), DropCause::kRandom);
    return;
  }
  if (config_.red && !red_admits(queue_.size())) {
    drop(std::move(packet), DropCause::kRed);
    return;
  }
  if (queue_.size() >= config_.buffer_packets) {
    drop(std::move(packet), DropCause::kOverflow);
    return;
  }
  packet.hop_start = sim_.now();
  backlog_bytes_ += packet.size_bytes;
  queue_.push_back(std::move(packet));
  stats_.max_queue = std::max(stats_.max_queue, queue_.size());
  if (!busy_ && !paused_) start_front_transmission(/*rearm=*/false);
  audit_conservation();
}

void Link::pause() {
  if (paused_) return;
  // Close the live serviceable-idle span, if one is open: time from here
  // to resume must not count toward RED's idle decay.
  if (queue_.empty()) red_idle_accrued_ += sim_.now() - idle_since_;
  paused_ = true;
}

void Link::resume() {
  if (!paused_) return;
  paused_ = false;
  if (!busy_ && !queue_.empty()) {
    start_front_transmission(/*rearm=*/false);
  } else if (queue_.empty()) {
    idle_since_ = sim_.now();  // reopen the serviceable-idle span
  }
}

void Link::start_front_transmission(bool rearm) {
  busy_ = true;
  const Duration service = service_time(queue_.front().size());
  stats_.busy += service;
  if (rearm) {
    // Back-to-back service: reuse the completion event that is dispatching
    // right now instead of a slab release + schedule round trip.
    sim_.rearm_in(service);
  } else {
    sim_.schedule_in(service, [this] { on_transmission_complete(); });
  }
}

void Link::complete_front() {
  Packet& done = queue_.front();
  backlog_bytes_ -= done.size_bytes;
  if (channel_ && channel_->advance()) {
    // The chain advances once per packet at the instant the transmitter
    // finishes with it (MODEL_NOTES §13): the loss is decided here, after
    // service, never perturbing queueing itself.
    drop(std::move(done), DropCause::kChannel);
    queue_.drop_front();
    return;
  }
  ++stats_.delivered;
  stats_.bytes_delivered += done.size_bytes;
  SimTime arrive = sim_.now() + config_.propagation;
  if (fluid_ != nullptr) {
    // M/D/1 queueing delay of the displaced fluid traffic, decided at
    // transmission-complete time, after the server.  A sampled wait could
    // reorder arrivals; clamp to the latest arrival already handed on so
    // the single-event flight ring stays FIFO (a link does not reorder —
    // late packets delay their successors; MODEL_NOTES §15).
    arrive += fluid_->sample_extra_wait();
    if (arrive < last_flight_arrival_) arrive = last_flight_arrival_;
  }
  if (remote_egress_) {
    // Domain boundary: the propagation span is carried by the cross-domain
    // channel, not the flight ring.  Arrival-time math (including the
    // fluid-wait FIFO clamp) is the local path's, so the receiving domain
    // sees the same timestamps the sequential kernel would have produced.
    // So is the arm time: the flight ring arms an arrival now when no
    // earlier one is pending, else when its predecessor arrives.
    const SimTime armed = std::max(sim_.now(), last_flight_arrival_);
    last_flight_arrival_ = arrive;
    remote_egress_(arrive, armed, std::move(done));
  } else if (sink_ || delivery_hook_) {
    // Hand off to the propagation stage: constant delay means FIFO order,
    // so one ring + one outstanding arrival event replaces a per-packet
    // closure (MODEL_NOTES §10).  Moving straight from the queue slot
    // into the flight slot touches each Packet once.
    if (fluid_ != nullptr) last_flight_arrival_ = arrive;
    flight_.push_back({arrive, std::move(done)});
  }
  queue_.drop_front();
}

void Link::on_transmission_complete() {
  busy_ = false;
  complete_front();
  // Seq-claim order matters at timestamp ties: the next completion's
  // rearm must take its sequence number before the arrival schedule, as
  // in the uncoalesced datapath.
  if (!paused_ && !queue_.empty()) {
    start_front_transmission(/*rearm=*/true);
  } else if (queue_.empty() && !paused_) {
    idle_since_ = sim_.now();  // queue just went serviceable-idle
  }
  if (!flight_.empty() && !arrival_armed_) arm_arrival(/*rearm=*/false);
  audit_conservation();
}

void Link::arm_arrival(bool rearm) {
  arrival_armed_ = true;
  if (rearm) {
    sim_.rearm_at(flight_.front().arrive_at);
  } else {
    sim_.schedule_at(flight_.front().arrive_at, [this] { on_arrival(); });
  }
}

void Link::on_arrival() {
  // The dropped slot stays readable until the next flight_ push, and
  // flight_ is only pushed from this link's own completion event — never
  // synchronously from a hook or sink — so the packet can be consumed in
  // place instead of moved out.
  InFlight& flight = flight_.front();
  flight_.drop_front();
  // Re-arm before running hook and sink: downstream work scheduled by the
  // sink at this same timestamp must dispatch after the already-due next
  // arrival was sequenced, preserving the per-packet event order of the
  // uncoalesced datapath.
  if (flight_.empty()) {
    arrival_armed_ = false;
  } else {
    arm_arrival(/*rearm=*/true);
  }
  if (delivery_hook_) delivery_hook_(flight.packet, sim_.now());
  if (sink_) sink_(std::move(flight.packet));
  if constexpr (util::kAuditChecksEnabled) {
    // Audited after the sink so a conservation break caused by the sink
    // re-entering this link (a routing loop) is attributed to the event
    // that created it.
    audit_conservation();
  }
}

void Link::audit_verify() const {
  queue_.audit_indices();
  flight_.audit_indices();

  // Packet conservation over the whole life of the link.
  SIM_CHECK(stats_.offered ==
                stats_.delivered + stats_.total_drops() + queue_.size(),
            "Link %s: conservation broken — offered %llu != delivered %llu "
            "+ dropped %llu + queued %zu (in flight %zu)",
            config_.name.c_str(),
            static_cast<unsigned long long>(stats_.offered),
            static_cast<unsigned long long>(stats_.delivered),
            static_cast<unsigned long long>(stats_.total_drops()),
            queue_.size(), flight_.size());

  // Byte-exact backlog: backlog_bytes_ is maintained incrementally on
  // enqueue/complete, so drift means a packet was double-counted or its
  // size mutated in the ring.
  std::int64_t queued_bytes = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    queued_bytes += queue_[i].size_bytes;
  }
  SIM_CHECK(queued_bytes == backlog_bytes_,
            "Link %s: backlog accounting drifted — cached %lld B, ring "
            "holds %lld B over %zu packets",
            config_.name.c_str(), static_cast<long long>(backlog_bytes_),
            static_cast<long long>(queued_bytes), queue_.size());

  // Queue discipline: the buffer bound counts the packet in service, a
  // busy transmitter must be serving something, and an idle transmitter
  // with waiting packets is only legal while paused.
  SIM_CHECK(queue_.size() <= config_.buffer_packets,
            "Link %s: %zu packets queued in a %zu-packet buffer",
            config_.name.c_str(), queue_.size(), config_.buffer_packets);
  SIM_CHECK(!busy_ || !queue_.empty(),
            "Link %s: transmitter busy with an empty queue",
            config_.name.c_str());
  SIM_CHECK(busy_ || paused_ || queue_.empty(),
            "Link %s: transmitter stalled — idle and unpaused with %zu "
            "packets waiting",
            config_.name.c_str(), queue_.size());

  // Propagation stage: constant delay means FIFO order, so arrival times
  // in the flight ring must be non-decreasing, and exactly one arrival
  // event is armed iff packets are in flight.
  for (std::size_t i = 1; i < flight_.size(); ++i) {
    SIM_CHECK(flight_[i - 1].arrive_at <= flight_[i].arrive_at,
              "Link %s: in-flight order broken — packet %llu arrives at "
              "%.9f s after its successor's %.9f s",
              config_.name.c_str(),
              static_cast<unsigned long long>(flight_[i - 1].packet.id),
              flight_[i - 1].arrive_at.seconds(),
              flight_[i].arrive_at.seconds());
  }
  SIM_CHECK(arrival_armed_ == !flight_.empty(),
            "Link %s: arrival event %s with %zu packets in flight",
            config_.name.c_str(), arrival_armed_ ? "armed" : "not armed",
            flight_.size());

  // Channel-stage conservation: every packet the transmitter finished
  // advanced the chain exactly once, and the bad state dropped exactly
  // the packets it saw.
  if (channel_) {
    SIM_CHECK(channel_->total_packets() ==
                  stats_.delivered + stats_.channel_drops,
              "Link %s: channel advanced %llu times for %llu completions",
              config_.name.c_str(),
              static_cast<unsigned long long>(channel_->total_packets()),
              static_cast<unsigned long long>(stats_.delivered +
                                              stats_.channel_drops));
    SIM_CHECK(channel_->state_packets(1) == stats_.channel_drops,
              "Link %s: channel bad state saw %llu packets, link counted "
              "%llu channel drops",
              config_.name.c_str(),
              static_cast<unsigned long long>(channel_->state_packets(1)),
              static_cast<unsigned long long>(stats_.channel_drops));
  }

  // Fluid stage: the aggregate's own invariants, plus the FIFO clamp
  // watermark the sampled waits are held to.
  if (fluid_ != nullptr) {
    fluid_->audit_verify();
    if (!flight_.empty()) {
      SIM_CHECK(flight_[flight_.size() - 1].arrive_at <= last_flight_arrival_,
                "Link %s: FIFO clamp watermark behind the flight ring",
                config_.name.c_str());
    }
  }
}

double Link::utilization() const {
  const double packetized = stats_.utilization(sim_.now());
  if (fluid_ == nullptr) return packetized;
  return std::min(packetized + fluid_->utilization(sim_.now()), 1.0);
}

void Link::publish_metrics(obs::MetricsRegistry& registry,
                           const std::string& prefix_arg) const {
  const std::string& prefix = prefix_arg.empty() ? config_.name : prefix_arg;
  registry.probe_counter(prefix + ".offered",
                         [this] { return double(stats_.offered); });
  registry.probe_counter(prefix + ".delivered",
                         [this] { return double(stats_.delivered); });
  registry.probe_counter(prefix + ".bytes_delivered",
                         [this] { return double(stats_.bytes_delivered); });
  registry.probe_counter(prefix + ".drops_overflow",
                         [this] { return double(stats_.overflow_drops); });
  // RED early drops, split from buffer-full overflow drops.
  registry.probe_counter(prefix + ".drops_early",
                         [this] { return double(stats_.red_drops); });
  registry.probe_counter(prefix + ".drops_random",
                         [this] { return double(stats_.random_drops); });
  registry.probe_counter(prefix + ".drops_channel",
                         [this] { return double(stats_.channel_drops); });
  registry.probe_counter(prefix + ".drops",
                         [this] { return double(stats_.total_drops()); });
  registry.probe_gauge(prefix + ".queue_pkts",
                       [this] { return double(queue_.size()); });
  registry.probe_gauge(prefix + ".backlog_bytes",
                       [this] { return double(backlog_bytes_); });
  registry.probe_gauge(prefix + ".max_queue",
                       [this] { return double(stats_.max_queue); });
  registry.probe_gauge(prefix + ".utilization",
                       [this] { return utilization(); });
  if (channel_) {
    // Per-state occupancy and drop structure of the Gilbert chain:
    // "<prefix>.channel.s<i>.*", s0 good and s1 bad.  Occupancy is the
    // fraction of served packets that advanced the chain into state i, so
    // s1's estimates the stationary loss p/(p+q).  The good state drops
    // nothing and the bad state drops every packet it sees.
    registry.probe_gauge(prefix + ".channel.state",
                         [this] { return double(channel_->state()); });
    for (std::size_t i = 0; i < 2; ++i) {
      const std::string state_prefix =
          prefix + ".channel.s" + std::to_string(i);
      registry.probe_counter(state_prefix + ".packets", [this, i] {
        return double(channel_->state_packets(i));
      });
      registry.probe_counter(state_prefix + ".drops", [this, i] {
        return i == 0 ? 0.0 : double(channel_->state_packets(i));
      });
      registry.probe_gauge(state_prefix + ".occupancy", [this, i] {
        const double total = double(channel_->total_packets());
        return total > 0.0 ? double(channel_->state_packets(i)) / total : 0.0;
      });
    }
  }
  if (fluid_ != nullptr) {
    // Fluid demand and its share of the wire.  Appended after every
    // pre-fluid metric so fluid-free snapshots keep their exact
    // registration order (byte-stable serialization).
    registry.probe_gauge(prefix + ".fluid_rate_bps",
                         [this] { return fluid_->fluid_rate().bps(); });
    registry.probe_gauge(prefix + ".fluid_utilization", [this] {
      return fluid_->utilization(sim_.now());
    });
  }
}

void Link::drop(Packet&& packet, DropCause cause) {
  switch (cause) {
    case DropCause::kOverflow:
      ++stats_.overflow_drops;
      break;
    case DropCause::kRandom:
      ++stats_.random_drops;
      break;
    case DropCause::kRed:
      ++stats_.red_drops;
      break;
    case DropCause::kChannel:
      ++stats_.channel_drops;
      break;
  }
  if (drop_hook_) drop_hook_(packet, cause);
}

}  // namespace bolot::sim

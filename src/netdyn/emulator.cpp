#include "netdyn/emulator.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "nettime/clock.h"

namespace bolot::netdyn {

namespace {
constexpr std::size_t kMaxDatagram = 2048;

// Runs in the member initializer of config_, before either socket binds.
PathEmulatorConfig validated(const PathEmulatorConfig& config) {
  if (config.one_way_delay < Duration::zero()) {
    throw std::invalid_argument(
        "PathEmulator: one_way_delay must not be negative");
  }
  if (config.rate < Bandwidth::zero() ||
      config.loss_probability >= Probability::one()) {
    throw std::invalid_argument("PathEmulator: bad configuration");
  }
  if (config.rate.is_positive() && config.buffer_packets == 0) {
    throw std::invalid_argument("PathEmulator: buffer must be positive");
  }
  return config;
}
}  // namespace

PathEmulator::PathEmulator(std::uint16_t listen_port,
                           PathEmulatorConfig config)
    : config_(validated(config)),
      client_side_(listen_port),
      upstream_side_(0),
      rng_(config.seed) {}

PathEmulator::~PathEmulator() { stop(); }

std::uint16_t PathEmulator::port() const { return client_side_.local_port(); }

void PathEmulator::start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] { worker(); });
}

void PathEmulator::stop() {
  if (!running_.exchange(false)) return;
  if (thread_.joinable()) thread_.join();
}

PathEmulatorStats PathEmulator::stats() const {
  PathEmulatorStats out;
  out.forwarded = forwarded_.load();
  out.overflow_drops = overflow_drops_.load();
  out.random_drops = random_drops_.load();
  return out;
}

void PathEmulator::admit(bool to_target, std::vector<std::byte> payload,
                         Duration now) {
  if (!config_.loss_probability.is_zero() &&
      rng_.chance(config_.loss_probability.value())) {
    random_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Duration depart = now;
  if (config_.rate.is_positive()) {
    Duration& busy_until = busy_until_[to_target ? 0 : 1];
    const Duration service = transmission_time(
        static_cast<std::int64_t>(payload.size()) * 8, config_.rate.bps());
    const Duration start = std::max(now, busy_until);
    // Drop-tail: the backlog ahead of this packet, in packets, is the
    // queued service time over this packet's service time.
    const double backlog_packets = (start - now) / service;
    if (backlog_packets >= static_cast<double>(config_.buffer_packets)) {
      overflow_drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    busy_until = start + service;
    depart = busy_until;
  }
  heap_.push(Pending{depart + config_.one_way_delay, next_seq_++, to_target,
                     std::move(payload)});
}

void PathEmulator::flush_due(Duration now) {
  while (!heap_.empty() && heap_.top().due <= now) {
    const Pending& pending = heap_.top();
    if (pending.to_target) {
      upstream_side_.send_to(pending.payload, config_.target);
      forwarded_.fetch_add(1, std::memory_order_relaxed);
    } else if (last_client_) {
      client_side_.send_to(pending.payload, *last_client_);
      forwarded_.fetch_add(1, std::memory_order_relaxed);
    }
    heap_.pop();
  }
}

void PathEmulator::worker() {
  SystemClock clock;
  std::array<std::byte, kMaxDatagram> buffer{};
  while (running_.load(std::memory_order_relaxed)) {
    const Duration now = clock.now();
    flush_due(now);
    Duration timeout = Duration::millis(20);
    if (!heap_.empty()) {
      timeout = std::clamp(heap_.top().due - now, Duration::zero(), timeout);
    }
    // Alternate polls across the two sockets within the timeout budget.
    const auto from_client = client_side_.receive(buffer, timeout / 2);
    if (from_client) {
      last_client_ = from_client->from;
      admit(/*to_target=*/true,
            std::vector<std::byte>(buffer.begin(),
                                   buffer.begin() + from_client->size),
            clock.now());
    }
    const auto from_target = upstream_side_.receive(buffer, timeout / 2);
    if (from_target) {
      admit(/*to_target=*/false,
            std::vector<std::byte>(buffer.begin(),
                                   buffer.begin() + from_target->size),
            clock.now());
    }
  }
}

}  // namespace bolot::netdyn

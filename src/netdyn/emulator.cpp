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
  if (config.rate < Bandwidth::zero()) {
    throw std::invalid_argument("PathEmulator: rate must not be negative");
  }
  if (config.loss_probability >= Probability::one()) {
    throw std::invalid_argument("PathEmulator: loss_probability must be < 1");
  }
  return config;
}
}  // namespace

PathEmulator::PathEmulator(std::uint16_t listen_port,
                           PathEmulatorConfig config)
    : config_(validated(config)),
      servers_{model::FifoServer(config_.buffer_packets),
               model::FifoServer(config_.buffer_packets)},
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

void PathEmulator::admit(std::size_t direction,
                         std::vector<std::byte> payload, Duration now) {
  if (!config_.loss_probability.is_zero() &&
      rng_.chance(config_.loss_probability.value())) {
    random_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const Duration service =
      config_.rate.is_positive()
          ? config_.rate.transmission_time(
                ByteSize::bytes(static_cast<std::int64_t>(payload.size())))
          : Duration::zero();
  const auto departure = servers_[direction].admit(now, service);
  if (!departure) {
    overflow_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  pending_[direction].push_back(
      Pending{*departure + config_.one_way_delay, std::move(payload)});
}

Duration PathEmulator::flush_due(Duration now) {
  Duration wait = Duration::millis(20);
  for (std::size_t direction : {kToTarget, kToClient}) {
    std::deque<Pending>& queue = pending_[direction];
    while (!queue.empty() && queue.front().due <= now) {
      if (direction == kToTarget) {
        upstream_side_.send_to(queue.front().payload, config_.target);
        forwarded_.fetch_add(1, std::memory_order_relaxed);
      } else if (last_client_) {
        client_side_.send_to(queue.front().payload, *last_client_);
        forwarded_.fetch_add(1, std::memory_order_relaxed);
      }
      queue.pop_front();
    }
    if (!queue.empty()) wait = std::min(wait, queue.front().due - now);
  }
  return wait;
}

void PathEmulator::worker() {
  SystemClock clock;
  std::array<std::byte, kMaxDatagram> buffer{};
  while (running_.load(std::memory_order_relaxed)) {
    const Duration timeout = flush_due(clock.now());
    // Alternate polls across the two sockets within the timeout budget.
    const auto from_client = client_side_.receive(buffer, timeout / 2);
    if (from_client) {
      last_client_ = from_client->from;
      admit(kToTarget,
            std::vector<std::byte>(buffer.begin(),
                                   buffer.begin() + from_client->size),
            clock.now());
    }
    const auto from_target = upstream_side_.receive(buffer, timeout / 2);
    if (from_target) {
      admit(kToClient,
            std::vector<std::byte>(buffer.begin(),
                                   buffer.begin() + from_target->size),
            clock.now());
    }
  }
}

}  // namespace bolot::netdyn

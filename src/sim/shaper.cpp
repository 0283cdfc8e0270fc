#include "sim/shaper.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace bolot::sim {

TokenBucketShaper::TokenBucketShaper(Simulator& sim, Network& net,
                                     ShaperConfig config)
    : sim_(sim),
      net_(net),
      config_(config),
      tokens_bytes_(static_cast<double>(config.bucket.count())),
      last_refill_(sim.now()) {
  if (!config_.rate.is_positive() || config_.bucket <= ByteSize::zero() ||
      config_.queue_packets == 0) {
    throw std::invalid_argument("TokenBucketShaper: bad configuration");
  }
  queue_.reserve(config_.queue_packets);
}

void TokenBucketShaper::refill_to_now() {
  const Duration elapsed = sim_.now() - last_refill_;
  last_refill_ = sim_.now();
  tokens_bytes_ =
      std::min(static_cast<double>(config_.bucket.count()),
               tokens_bytes_ + elapsed.seconds() * config_.rate.bps() / 8.0);
}

void TokenBucketShaper::offer(Packet&& packet) {
  refill_to_now();
  if (queue_.empty() &&
      tokens_bytes_ >= static_cast<double>(packet.size_bytes)) {
    tokens_bytes_ -= static_cast<double>(packet.size_bytes);
    net_.send(std::move(packet));
    return;
  }
  if (queue_.size() >= config_.queue_packets) {
    ++dropped_;
    return;
  }
  // A non-empty queue already has its head's release pending; moving it
  // on every offer would push the head's release back indefinitely.
  const bool was_empty = queue_.empty();
  queue_.push_back(std::move(packet));
  if (was_empty) schedule_release(/*rearm=*/false);
}

void TokenBucketShaper::release_ready() {
  refill_to_now();
  // Epsilon-tolerant: a release scheduled for "exactly enough tokens" must
  // not miss by a rounding ulp and reschedule a zero wait forever.
  while (!queue_.empty() &&
         tokens_bytes_ + 1e-9 >=
             static_cast<double>(queue_.front().size_bytes)) {
    Packet packet = std::move(queue_.front());
    queue_.drop_front();
    tokens_bytes_ -= static_cast<double>(packet.size_bytes);
    net_.send(std::move(packet));
  }
  if (!queue_.empty()) schedule_release(/*rearm=*/true);
}

void TokenBucketShaper::schedule_release(bool rearm) {
  const double deficit_bytes =
      static_cast<double>(queue_.front().size_bytes) - tokens_bytes_;
  // Round the wait up and floor it at 1 us so progress is guaranteed even
  // when floating-point refill arithmetic leaves a sub-nanosecond deficit.
  const Duration wait = std::max(
      Duration::micros(1.0),
      Duration::seconds(std::max(0.0, deficit_bytes) * 8.0 /
                        config_.rate.bps()));
  if (rearm) {
    // release_ready() is dispatching right now; re-arm it in place.
    sim_.rearm_in(wait);
  } else {
    // Only offer() to an empty queue gets here, and an empty queue has no
    // release pending.
    sim_.schedule_in(wait, [this] { release_ready(); });
  }
}

}  // namespace bolot::sim

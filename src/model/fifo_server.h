// The paper's Fig.-3 server in integer time: FIFO, rate mu, a buffer of K
// packets counting the one in service.  Departures follow Lindley's
// recurrence d_n = max(a_n, d_{n-1}) + s_n; an arrival finding K packets
// held is dropped, and one departing at the arrival instant has left.
// run_model and PathEmulator serve on it; audit_fuzz_test replays
// sim::Link through it.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <stdexcept>

#include "util/time.h"

namespace bolot::model {

class FifoServer {
 public:
  explicit FifoServer(std::size_t buffer_packets) : buffer_(buffer_packets) {
    if (buffer_ == 0) {
      throw std::invalid_argument("FifoServer: buffer must hold a packet");
    }
  }

  /// Departure of a packet arriving at `arrival` (no earlier than the
  /// last), or nullopt when K packets are still held.
  std::optional<Duration> admit(Duration arrival, Duration service) {
    while (!held_.empty() && held_.front() <= arrival) held_.pop_front();
    if (held_.size() == buffer_) return std::nullopt;
    held_.push_back((held_.empty() ? arrival : held_.back()) + service);
    return held_.back();
  }

 private:
  std::size_t buffer_;
  std::deque<Duration> held_;  // departures of the packets held, in order
};

}  // namespace bolot::model

// A real-time UDP path emulator: the bridge between the real-socket
// NetDyn and the simulated 1992 Internet.
//
// PathEmulator listens on a UDP port and relays datagrams to a target
// (and replies back to the most recent client), imposing the Fig.-3 path
// model in *wall-clock* time: one-way propagation delay, a serialization
// rate with a finite drop-tail queue, and random loss.  Point the real
// prober at the emulator instead of the echo server and it measures a
// transatlantic-1992 path on loopback:
//
//   EchoServer echo(0, clock);     // poll_once() in a loop of its own
//   PathEmulatorConfig cfg;        // 128 kb/s, 52 ms, ...
//   cfg.target = make_endpoint("127.0.0.1", echo.port());
//   PathEmulator wan(0, cfg);      wan.start();
//   Prober(clock, {...}).run(make_endpoint("127.0.0.1", wan.port()));
//
// Single-flow by design (like the experiment): replies go to the last
// client seen.  Both directions get their own rate limiter and queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

#include "netdyn/udp_socket.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::netdyn {

struct PathEmulatorConfig {
  Endpoint target;                       // upstream destination
  Duration one_way_delay = Duration::millis(52);
  Bandwidth rate = Bandwidth::kbps(128);  // zero = no serialization delay
  std::size_t buffer_packets = 14;        // per direction, when rate-limited
  Probability loss_probability = Probability::zero();  // per traversal/dir
  std::uint64_t seed = 1;
};

struct PathEmulatorStats {
  std::uint64_t forwarded = 0;
  std::uint64_t overflow_drops = 0;
  std::uint64_t random_drops = 0;
};

class PathEmulator {
 public:
  /// Binds the client-facing socket to `listen_port` (0 = ephemeral).
  PathEmulator(std::uint16_t listen_port, PathEmulatorConfig config);
  ~PathEmulator();

  PathEmulator(const PathEmulator&) = delete;
  PathEmulator& operator=(const PathEmulator&) = delete;

  std::uint16_t port() const;

  void start();
  void stop();

  /// Snapshot of the counters (approximate while running).
  PathEmulatorStats stats() const;

 private:
  struct Pending {
    Duration due;
    std::uint64_t seq;  // FIFO tie-break
    bool to_target;
    std::vector<std::byte> payload;
    bool operator>(const Pending& other) const {
      if (due != other.due) return due > other.due;
      return seq > other.seq;
    }
  };

  void worker();
  /// Applies loss/rate/delay and queues the datagram; direction state is
  /// chosen by `to_target`.
  void admit(bool to_target, std::vector<std::byte> payload, Duration now);
  void flush_due(Duration now);

  PathEmulatorConfig config_;
  UdpSocket client_side_;   // clients talk to this
  UdpSocket upstream_side_; // we talk to the target from this
  std::optional<Endpoint> last_client_;
  Rng rng_;

  // Per-direction virtual transmitter state (wall-clock Durations from the
  // monotonic clock).
  Duration busy_until_[2];

  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> heap_;
  std::uint64_t next_seq_ = 0;

  std::atomic<bool> running_{false};
  std::thread thread_;
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> overflow_drops_{0};
  std::atomic<std::uint64_t> random_drops_{0};
};

}  // namespace bolot::netdyn

// A real-time UDP path emulator: the bridge between the real-socket
// NetDyn and the simulated 1992 Internet.
//
// PathEmulator listens on a UDP port and relays datagrams to a target
// (and replies back to the most recent client), imposing the Fig.-3 path
// model in *wall-clock* time: one-way delay, a serialization rate with a
// drop-tail buffer of K packets counting the one in service, and random
// loss.  Point the real prober at the emulator instead of the echo server
// and it measures a transatlantic-1992 path on loopback:
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

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <thread>
#include <vector>

#include "model/fifo_server.h"
#include "netdyn/udp_socket.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::netdyn {

struct PathEmulatorConfig {
  Endpoint target;                       // upstream destination
  Duration one_way_delay = Duration::millis(52);
  Bandwidth rate = Bandwidth::kbps(128);  // zero = no serialization delay
  std::size_t buffer_packets = 14;        // K per direction, at least 1
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
    std::vector<std::byte> payload;
  };

  // Direction indices into servers_ and pending_.
  static constexpr std::size_t kToTarget = 0, kToClient = 1;

  void worker();
  /// Applies loss/rate/delay and queues the datagram in `direction`.
  void admit(std::size_t direction, std::vector<std::byte> payload,
             Duration now);
  /// Sends what is due by `now`; returns how long the worker may wait for
  /// input before the next datagram is due (at most 20 ms).
  Duration flush_due(Duration now);

  PathEmulatorConfig config_;
  // One Fig.-3 server per direction, in monotonic wall-clock time; built
  // before the sockets bind, so a zero buffer throws first.
  std::array<model::FifoServer, 2> servers_;
  UdpSocket client_side_;   // clients talk to this
  UdpSocket upstream_side_; // we talk to the target from this
  std::optional<Endpoint> last_client_;
  Rng rng_;

  // Datagrams in flight per direction: departures are monotone and the
  // delay constant, so due times never decrease and the front goes next.
  std::array<std::deque<Pending>, 2> pending_;

  std::atomic<bool> running_{false};
  std::thread thread_;
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> overflow_drops_{0};
  std::atomic<std::uint64_t> random_drops_{0};
};

}  // namespace bolot::netdyn

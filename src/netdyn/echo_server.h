// The intermediate host of the NetDyn experiment: echoes each probe back
// to its sender after stamping the echo timestamp, exactly as the paper
// describes ("upon receipt of a probe packet from the source, the
// intermediate host immediately echoes the packet").
#pragma once

#include <atomic>
#include <cstdint>

#include "netdyn/udp_socket.h"
#include "nettime/clock.h"

namespace bolot::netdyn {

class EchoServer {
 public:
  /// Binds to `port` (0 = ephemeral; query with port()).  `clock` must
  /// outlive the server.  The caller runs the echo loop: poll_once() in
  /// a loop of its own.
  EchoServer(std::uint16_t port, const Clock& clock);

  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;

  std::uint16_t port() const;

  /// Processes at most one datagram, waiting up to `timeout`.  Returns
  /// true if a probe was echoed.  Non-probe datagrams are dropped.
  bool poll_once(Duration timeout);

  std::uint64_t echoed_count() const { return echoed_.load(); }

 private:
  UdpSocket socket_;
  const Clock& clock_;
  std::atomic<std::uint64_t> echoed_{0};
};

}  // namespace bolot::netdyn

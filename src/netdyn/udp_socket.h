// Minimal RAII wrapper over a POSIX UDP socket, sufficient for the NetDyn
// prober and echo server.  IPv4 only (the original tool predates IPv6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "util/time.h"

namespace bolot::netdyn {

struct Endpoint {
  std::uint32_t addr_be = 0;  // network byte order
  std::uint16_t port = 0;     // host byte order

  std::string to_string() const;
};

/// Parses "a.b.c.d" (throws std::invalid_argument on malformed input).
Endpoint make_endpoint(const std::string& dotted_quad, std::uint16_t port);

class UdpSocket {
 public:
  /// Creates and binds to the given local port (0 = ephemeral).
  explicit UdpSocket(std::uint16_t local_port = 0);
  ~UdpSocket();

  UdpSocket(UdpSocket&&) = delete;
  UdpSocket& operator=(UdpSocket&&) = delete;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  std::uint16_t local_port() const;

  void send_to(std::span<const std::byte> payload, const Endpoint& to);

  struct Received {
    std::size_t size = 0;
    Endpoint from;
  };

  /// Waits up to `timeout` for one datagram; returns nullopt on timeout.
  /// Datagrams longer than `buffer` are truncated (UDP semantics).
  std::optional<Received> receive(std::span<std::byte> buffer,
                                  Duration timeout);

 private:
  void close_fd() noexcept;

  int fd_ = -1;
};

}  // namespace bolot::netdyn

#include "netdyn/echo_server.h"

#include <array>

#include "netdyn/wire_format.h"

namespace bolot::netdyn {

EchoServer::EchoServer(std::uint16_t port, const Clock& clock)
    : socket_(port), clock_(clock) {}

std::uint16_t EchoServer::port() const { return socket_.local_port(); }

bool EchoServer::poll_once(Duration timeout) {
  std::array<std::byte, kProbePacketSize> buffer{};
  const auto received = socket_.receive(buffer, timeout);
  if (!received) return false;
  if (received->size != kProbePacketSize) return false;
  if (!decode_probe(buffer)) return false;
  stamp_echo_in_place(buffer, clock_.now());
  socket_.send_to(buffer, received->from);
  echoed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace bolot::netdyn

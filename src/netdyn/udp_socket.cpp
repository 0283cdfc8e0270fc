#include "netdyn/udp_socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace bolot::netdyn {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in to_sockaddr(const Endpoint& ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = ep.addr_be;
  sa.sin_port = htons(ep.port);
  return sa;
}

Endpoint from_sockaddr(const sockaddr_in& sa) {
  Endpoint ep;
  ep.addr_be = sa.sin_addr.s_addr;
  ep.port = ntohs(sa.sin_port);
  return ep;
}

}  // namespace

std::string Endpoint::to_string() const {
  char buf[INET_ADDRSTRLEN] = {};
  in_addr addr{};
  addr.s_addr = addr_be;
  if (inet_ntop(AF_INET, &addr, buf, sizeof buf) == nullptr) {
    return "<bad-endpoint>";
  }
  return std::string(buf) + ":" + std::to_string(port);
}

Endpoint make_endpoint(const std::string& dotted_quad, std::uint16_t port) {
  in_addr addr{};
  if (inet_pton(AF_INET, dotted_quad.c_str(), &addr) != 1) {
    throw std::invalid_argument("make_endpoint: bad address " + dotted_quad);
  }
  return Endpoint{addr.s_addr, port};
}

UdpSocket::UdpSocket(std::uint16_t local_port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw_errno("socket");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_ANY);
  sa.sin_port = htons(local_port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    const int saved = errno;
    close_fd();
    errno = saved;
    throw_errno("bind");
  }
}

UdpSocket::~UdpSocket() { close_fd(); }

void UdpSocket::close_fd() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint16_t UdpSocket::local_port() const {
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(sa.sin_port);
}

void UdpSocket::send_to(std::span<const std::byte> payload,
                        const Endpoint& to) {
  const sockaddr_in sa = to_sockaddr(to);
  const ssize_t sent =
      ::sendto(fd_, payload.data(), payload.size(), 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  if (sent < 0) throw_errno("sendto");
  if (static_cast<std::size_t>(sent) != payload.size()) {
    throw std::runtime_error("sendto: short datagram write");
  }
}

std::optional<UdpSocket::Received> UdpSocket::receive(
    std::span<std::byte> buffer, Duration timeout) {
  pollfd pfd{fd_, POLLIN, 0};
  const int timeout_ms =
      timeout.is_negative()
          ? 0
          : static_cast<int>((timeout.count_nanos() + 999'999) / 1'000'000);
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) throw_errno("poll");
  if (rc == 0) return std::nullopt;

  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  const ssize_t n = ::recvfrom(fd_, buffer.data(), buffer.size(), 0,
                               reinterpret_cast<sockaddr*>(&sa), &len);
  if (n < 0) throw_errno("recvfrom");
  return Received{static_cast<std::size_t>(n), from_sockaddr(sa)};
}

}  // namespace bolot::netdyn

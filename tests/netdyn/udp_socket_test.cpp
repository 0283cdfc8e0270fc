#include "netdyn/udp_socket.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>

namespace bolot::netdyn {
namespace {

TEST(EndpointTest, ParseAndFormat) {
  const Endpoint ep = make_endpoint("127.0.0.1", 9000);
  EXPECT_EQ(ep.port, 9000);
  EXPECT_EQ(ep.to_string(), "127.0.0.1:9000");
}

TEST(EndpointTest, RejectsMalformedAddress) {
  EXPECT_THROW(make_endpoint("not-an-ip", 80), std::invalid_argument);
  EXPECT_THROW(make_endpoint("256.0.0.1", 80), std::invalid_argument);
  EXPECT_THROW(make_endpoint("", 80), std::invalid_argument);
}

TEST(UdpSocketTest, BindsEphemeralPort) {
  UdpSocket socket(0);
  EXPECT_GT(socket.local_port(), 0);
}

TEST(UdpSocketTest, ReceiveTimesOutWhenQuiet) {
  UdpSocket socket(0);
  std::array<std::byte, 64> buffer{};
  const auto received = socket.receive(buffer, Duration::millis(10));
  EXPECT_FALSE(received.has_value());
}

TEST(UdpSocketTest, LoopbackRoundTrip) {
  UdpSocket sender(0);
  UdpSocket receiver(0);
  const char payload[] = "netdyn";
  sender.send_to(std::as_bytes(std::span(payload, sizeof payload)),
                 make_endpoint("127.0.0.1", receiver.local_port()));
  std::array<std::byte, 64> buffer{};
  const auto received = receiver.receive(buffer, Duration::seconds(2));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->size, sizeof payload);
  EXPECT_EQ(std::memcmp(buffer.data(), payload, sizeof payload), 0);
  EXPECT_EQ(received->from.port, sender.local_port());
}

TEST(UdpSocketTest, ReplyReachesOriginalSender) {
  UdpSocket a(0);
  UdpSocket b(0);
  const char ping[] = "ping";
  a.send_to(std::as_bytes(std::span(ping, 4)),
            make_endpoint("127.0.0.1", b.local_port()));
  std::array<std::byte, 64> buffer{};
  const auto at_b = b.receive(buffer, Duration::seconds(2));
  ASSERT_TRUE(at_b.has_value());
  b.send_to(std::span(buffer.data(), at_b->size), at_b->from);
  const auto back_at_a = a.receive(buffer, Duration::seconds(2));
  ASSERT_TRUE(back_at_a.has_value());
  EXPECT_EQ(back_at_a->size, 4u);
}

TEST(UdpSocketTest, BindingSamePortTwiceFails) {
  UdpSocket first(0);
  EXPECT_THROW(UdpSocket second(first.local_port()), std::system_error);
}

}  // namespace
}  // namespace bolot::netdyn

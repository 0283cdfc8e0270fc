// Runs an EchoServer's echo loop for tests: poll_once on a thread of its
// own, as the echo server tool does in its main loop.
#pragma once

#include <stop_token>
#include <thread>

#include "netdyn/echo_server.h"
#include "util/time.h"

namespace bolot::netdyn {

/// Echoes on `server` until the returned thread is destroyed, which stops
/// and joins it.  Declare it after the server so it goes first.
inline std::jthread echo_loop(EchoServer& server) {
  return std::jthread([&server](std::stop_token stop) {
    while (!stop.stop_requested()) server.poll_once(Duration::millis(50));
  });
}

}  // namespace bolot::netdyn

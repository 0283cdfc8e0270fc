// Standalone NetDyn echo server (the paper's "intermediate host"):
//
//   netdyn_echo_server [port]
//
// Binds the given UDP port (default 4242; 0 picks an ephemeral port and
// prints it) and echoes every valid 32-byte probe back to its sender
// after stamping the echo timestamp.  Run this on one machine and point
// netdyn_probe at it from another to measure a real path exactly as the
// paper did.
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "netdyn/echo_server.h"
#include "nettime/clock.h"
#include "util/parse_number.h"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  using namespace bolot;

  std::uint16_t port = 4242;
  if (argc >= 2) {
    try {
      port = static_cast<std::uint16_t>(
          parse_u64("port", argv[1], std::numeric_limits<std::uint16_t>::max()));
    } catch (const std::invalid_argument& e) {
      std::cerr << "netdyn_echo_server: " << e.what() << "\n"
                << "usage: netdyn_echo_server [port]\n";
      return 2;
    }
  }

  SystemClock clock;
  try {
    netdyn::EchoServer server(port, clock);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::cout << "netdyn echo server listening on UDP port " << server.port()
              << " (ctrl-c to stop)\n";
    std::uint64_t last_reported = 0;
    while (g_stop == 0) {
      server.poll_once(Duration::millis(200));
      if (server.echoed_count() >= last_reported + 1000) {
        last_reported = server.echoed_count();
        std::cout << "echoed " << last_reported << " probes\n";
      }
    }
    std::cout << "\nstopping after " << server.echoed_count()
              << " echoed probes\n";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}

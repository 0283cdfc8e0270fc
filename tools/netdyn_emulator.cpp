// Standalone UDP path emulator — interpose 1992 Internet conditions in
// front of any UDP service (not just NetDyn):
//
//   netdyn_emulator <listen_port> <target_host> <target_port>
//                   [delay_ms] [rate_bps] [buffer_pkts] [loss]
//
// Defaults reproduce the paper's transatlantic hop: 52 ms one-way delay,
// 128 kb/s serialization, 14-packet drop-tail buffer, no random loss.
// Point a prober (or an audio tool) at listen_port and it experiences
// the INRIA->UMd bottleneck in real time.
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "netdyn/emulator.h"
#include "util/parse_number.h"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  using namespace bolot;
  const char* const usage =
      "usage: netdyn_emulator <listen_port> <target_host> <target_port> "
      "[delay_ms] [rate_bps] [buffer_pkts] [loss]\n";
  if (argc < 4) {
    std::cerr << usage;
    return 2;
  }
  constexpr std::uint64_t kMaxPort = std::numeric_limits<std::uint16_t>::max();
  std::uint16_t listen_port = 0;
  std::uint16_t target_port = 0;
  netdyn::PathEmulatorConfig config;
  try {
    listen_port = static_cast<std::uint16_t>(
        parse_u64("listen_port", argv[1], kMaxPort));
    target_port = static_cast<std::uint16_t>(
        parse_u64("target_port", argv[3], kMaxPort));
    if (argc >= 5) {
      config.one_way_delay = Duration::millis(parse_f64("delay_ms", argv[4]));
    }
    if (argc >= 6) config.rate = Bandwidth::bps(parse_f64("rate_bps", argv[5]));
    if (argc >= 7) config.buffer_packets = parse_u64("buffer_pkts", argv[6]);
    if (argc >= 8) {
      config.loss_probability =
          bolot::Probability::checked(parse_f64("loss", argv[7]));
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "netdyn_emulator: " << e.what() << "\n" << usage;
    return 2;
  }
  try {
    config.target = netdyn::make_endpoint(argv[2], target_port);
    netdyn::PathEmulator emulator(listen_port, config);
    emulator.start();
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::cout << "emulating path to " << config.target.to_string()
              << " on UDP port " << emulator.port() << ": delay "
              << config.one_way_delay.to_string() << ", rate "
              << config.rate.bps() << " b/s, buffer " << config.buffer_packets
              << " pkts, loss " << config.loss_probability.value()
              << " (ctrl-c to stop)\n";
    while (g_stop == 0) {
      // The worker thread does the relaying; just idle here.
      struct timespec interval = {0, 200 * 1000 * 1000};
      nanosleep(&interval, nullptr);
    }
    const auto stats = emulator.stats();
    std::cout << "\nforwarded " << stats.forwarded << ", overflow drops "
              << stats.overflow_drops << ", random drops "
              << stats.random_drops << "\n";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}

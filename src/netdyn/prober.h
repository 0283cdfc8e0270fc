// The NetDyn source host: sends probes at a fixed interval delta and
// collects the echoes, producing a ProbeTrace for the analysis library.
//
// Like the original tool (and the paper's setup), the source and
// destination are the same host so only one clock is involved and no
// synchronization is needed; only round-trip times are derived.
#pragma once

#include <cstdint>

#include "analysis/probe_trace.h"
#include "netdyn/udp_socket.h"
#include "nettime/clock.h"
#include "util/time.h"

namespace bolot::netdyn {

struct ProberConfig {
  Duration delta = Duration::millis(50);
  std::uint64_t probe_count = 100;
  /// How long to keep collecting echoes after the last send; echoes
  /// arriving later count as lost, like in a fixed-length experiment.
  Duration drain = Duration::millis(500);
};

class Prober {
 public:
  /// `clock` must outlive the prober.  Binds an ephemeral local port.
  Prober(const Clock& clock, ProberConfig config);

  /// Runs the full experiment against `echo_host`, blocking until all
  /// probes are sent and the drain window elapses.  May be called once.
  analysis::ProbeTrace run(const Endpoint& echo_host);

 private:
  /// Waits up to `timeout` for one datagram and records it if it is the
  /// first echo of a sent probe; false when nothing arrived in time.
  bool receive_echo(Duration timeout);
  void receive_until(SimTime deadline);

  const Clock& clock_;
  ProberConfig config_;
  UdpSocket socket_;
  analysis::ProbeTrace trace_;
  bool used_ = false;
};

}  // namespace bolot::netdyn

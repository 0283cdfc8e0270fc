// A 1992-vintage TCP (Tahoe) source/sink pair for closed-loop cross
// traffic.
//
// The paper's "Internet stream" was mostly TCP: bulk FTP transfers whose
// ack clock paces data onto the bottleneck, plus the window dynamics
// (slow start, congestion avoidance, go-back-N after loss) studied by
// Jacobson and by Zhang/Shenker/Clark (refs [12, 28, 29] — the two-way
// interactions that cause ack compression).  The open-loop generators in
// traffic.h approximate this; TcpSource implements it, so ablations can
// compare measured probe behavior under open-loop vs closed-loop cross
// traffic.
//
// Implemented: slow start + congestion avoidance (Jacobson), RTO from
// SRTT + 4*RTTVAR with Karn's rule and exponential backoff (1 s initial,
// clamped to [200 ms, 30 s]), 3-duplicate-ack fast retransmit (Tahoe:
// retransmit + slow start), cumulative 40-byte acks, go-back-N recovery,
// receiver window cap, and an optional finite-transfer model (geometric
// file sizes separated by idle periods).
// Not implemented: SACK, delayed acks, Nagle, fast recovery (Reno).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "util/inplace_function.h"

#include "sim/network.h"
#include "sim/packet.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"

namespace bolot::sim {

/// Every source sends 512-byte segments (MSS + headers), starts at a
/// 16-packet ssthresh and caps cwnd at a 32-packet receiver window.
struct TcpConfig {
  /// Finite transfers: geometric file length with this mean (packets),
  /// separated by exponential idle periods.  Unset = one infinite
  /// transfer (a greedy FTP).
  std::optional<double> mean_file_packets;
  Duration mean_idle = Duration::seconds(5);
};

struct TcpStats {
  std::uint64_t segments_sent = 0;      // includes retransmissions
  std::uint64_t segments_acked = 0;     // unique segments cumulatively acked
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t transfers_completed = 0;
  double last_srtt_ms = 0.0;
  double last_cwnd_packets = 0.0;
};

/// The receiving side: registers at `node`, acks every data segment
/// cumulatively.  One sink serves any number of flows addressed to the
/// node.  NOTE: Network allows one receiver per node, so a TcpSink and an
/// EchoHost cannot share a node.
class TcpSink {
 public:
  TcpSink(Simulator& sim, Network& net, NodeId node);

 private:
  void on_packet(Packet&& p);

  Simulator& sim_;
  Network& net_;
  NodeId node_;
  // Per-flow reassembly state: next expected seq + out-of-order buffer.
  struct FlowState {
    std::uint64_t next_expected = 0;
    std::set<std::uint64_t> out_of_order;
  };
  std::map<std::uint32_t, FlowState> flows_;
};

class TcpSource {
 public:
  /// Data flows src -> dst; acks flow back to `src` and must be routed to
  /// this source's node (the source registers as the receiver at `src`).
  TcpSource(Simulator& sim, Network& net, NodeId src, NodeId dst,
            std::uint32_t flow, Rng rng, TcpConfig config);

  void start(SimTime at);

  /// Observation hook: called at every ack arrival (after processing),
  /// with the arrival time and the cumulative ack value.  Used by the
  /// ack-compression bench to study ack spacing (Zhang/Shenker/Clark's
  /// two-way-traffic phenomenon, which the paper cites as the sibling of
  /// probe compression).  Inline storage, same bound as the link hooks.
  using AckHook = util::InplaceFunction<void(SimTime at, std::uint64_t ack),
                                        Link::kHookCapacity>;
  void set_ack_hook(AckHook hook) { ack_hook_ = std::move(hook); }

  const TcpStats& stats() const { return stats_; }

 private:
  void begin_transfer();
  void try_send();
  void send_segment(std::uint64_t seq, bool is_retransmission);
  void on_packet(Packet&& p);
  void on_ack(std::uint64_t cumulative_ack);
  void on_timeout();
  void arm_timer();
  void enter_loss_recovery();

  Simulator& sim_;
  Network& net_;
  NodeId src_, dst_;
  std::uint32_t flow_;
  Rng rng_;
  TcpConfig config_;
  TcpStats stats_;

  bool running_ = false;
  bool transfer_active_ = false;
  std::uint64_t transfer_end_ = UINT64_MAX;  // one past the last seq to send

  // Sliding window state (sequence numbers count segments).
  std::uint64_t snd_una_ = 0;  // oldest unacked
  std::uint64_t snd_nxt_ = 0;  // next to send
  double cwnd_ = 1.0;          // packets
  double ssthresh_;
  std::uint32_t dupacks_ = 0;
  /// Highest sequence outstanding when loss recovery last started; stale
  /// duplicate acks below this must not retrigger fast retransmit (the
  /// NewReno-style partial-ack guard, needed even in Tahoe because
  /// go-back-N leaves a window of old segments in flight).
  std::uint64_t recover_ = 0;

  // Jacobson/Karn RTT estimation.
  bool srtt_valid_ = false;
  double srtt_ms_ = 0.0;
  double rttvar_ms_ = 0.0;
  Duration rto_;
  std::optional<std::uint64_t> timed_seq_;  // Karn: time one segment at a time
  SimTime timed_sent_at_;

  EventHandle timer_;
  AckHook ack_hook_;
};

}  // namespace bolot::sim

#include "sim/tcp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/audit.h"

namespace bolot::sim {

namespace {

constexpr ByteSize kAckWire = ByteSize::bytes(40);  // pure ack wire size
constexpr Duration kInitialRto = Duration::seconds(1);
constexpr Duration kMinRto = Duration::millis(200);
constexpr Duration kMaxRto = Duration::seconds(30);
constexpr std::uint32_t kDupackThreshold = 3;

/// Window-state sanity, checked (audit builds) everywhere the sliding
/// window moves: the paper's closed-loop cross traffic is only faithful
/// if the ack clock obeys Jacobson's bounds — a cwnd below one segment
/// deadlocks the flow, one above the receiver window overdrives the
/// bottleneck, and an una/nxt inversion corrupts go-back-N recovery.
void audit_window(const char* where, std::uint64_t snd_una,
                  std::uint64_t snd_nxt, double cwnd, double ssthresh,
                  const TcpConfig& config) {
  SIM_AUDIT(snd_una <= snd_nxt,
            "TcpSource(%s): send window inverted — snd_una %llu > snd_nxt "
            "%llu",
            where, static_cast<unsigned long long>(snd_una),
            static_cast<unsigned long long>(snd_nxt));
  SIM_AUDIT(cwnd >= 1.0 && cwnd <= config.receiver_window_packets,
            "TcpSource(%s): cwnd %.3f outside [1, rwnd=%.1f]", where, cwnd,
            config.receiver_window_packets);
  SIM_AUDIT(ssthresh >= 2.0 ||
                ssthresh >= config.initial_ssthresh_packets,
            "TcpSource(%s): ssthresh %.3f collapsed below 2 packets", where,
            ssthresh);
  // Suppress unused-parameter warnings in non-audit builds.
  (void)where, (void)snd_una, (void)snd_nxt, (void)cwnd, (void)ssthresh,
      (void)config;
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpSink

TcpSink::TcpSink(Simulator& sim, Network& net, NodeId node)
    : sim_(sim), net_(net), node_(node) {
  net_.set_receiver(node_, [this](Packet&& p) { on_packet(std::move(p)); });
}

void TcpSink::on_packet(Packet&& p) {
  if (!p.has_tcp() || p.tcp().is_ack) return;  // not a data segment
  FlowState& flow = flows_[p.flow];
  const std::uint64_t seq = p.tcp().seq;
  if (seq == flow.next_expected) {
    ++flow.next_expected;
    // Drain any buffered in-order continuation.
    while (flow.out_of_order.erase(flow.next_expected) > 0) {
      ++flow.next_expected;
    }
  } else if (seq > flow.next_expected) {
    flow.out_of_order.insert(seq);
  }
  // Cumulative ack (also a duplicate ack when seq was out of order).
  Packet ack;
  ack.id = p.id ^ 0x8000000000000000ULL;
  ack.kind = PacketKind::kOther;
  ack.flow = p.flow;
  ack.size_bytes = kAckWire.count();
  ack.src = node_;
  ack.dst = p.src;
  ack.set_tcp({flow.next_expected, /*is_ack=*/true});
  net_.send(std::move(ack));
}

// ---------------------------------------------------------------------------
// TcpSource

TcpSource::TcpSource(Simulator& sim, Network& net, NodeId src, NodeId dst,
                     std::uint32_t flow, Rng rng, TcpConfig config)
    : sim_(sim),
      net_(net),
      src_(src),
      dst_(dst),
      flow_(flow),
      rng_(rng),
      config_(config),
      ssthresh_(config.initial_ssthresh_packets),
      rto_(kInitialRto) {
  if (config_.segment <= ByteSize::zero()) {
    throw std::invalid_argument("TcpSource: segment size must be positive");
  }
  if (config_.initial_ssthresh_packets < 1.0 ||
      config_.receiver_window_packets < 1.0) {
    throw std::invalid_argument("TcpSource: windows must be >= 1 packet");
  }
  if (config_.mean_file_packets && *config_.mean_file_packets < 1.0) {
    throw std::invalid_argument("TcpSource: mean file length < 1 packet");
  }
  net_.set_receiver(src_, [this](Packet&& p) { on_packet(std::move(p)); });
}

void TcpSource::start(SimTime at) {
  if (running_) return;
  running_ = true;
  sim_.schedule_at(at, [this] { begin_transfer(); });
}

void TcpSource::begin_transfer() {
  transfer_active_ = true;
  if (config_.mean_file_packets) {
    const auto packets = rng_.geometric(1.0 / *config_.mean_file_packets);
    transfer_end_ = snd_nxt_ + packets;
  } else {
    transfer_end_ = UINT64_MAX;
  }
  // New connection: restart from a one-packet window (ssthresh persists,
  // as after any idle restart).
  cwnd_ = 1.0;
  dupacks_ = 0;
  try_send();
}

void TcpSource::try_send() {
  if (!transfer_active_) return;
  audit_window("try_send", snd_una_, snd_nxt_, cwnd_, ssthresh_, config_);
  const double window = std::min(cwnd_, config_.receiver_window_packets);
  const auto window_packets = static_cast<std::uint64_t>(window);
  while (snd_nxt_ < transfer_end_ &&
         snd_nxt_ - snd_una_ < window_packets) {
    send_segment(snd_nxt_, /*is_retransmission=*/false);
    ++snd_nxt_;
  }
  SIM_AUDIT(snd_nxt_ - snd_una_ <= std::max<std::uint64_t>(window_packets, 1),
            "TcpSource(try_send): %llu segments in flight exceed the %llu-"
            "packet window",
            static_cast<unsigned long long>(snd_nxt_ - snd_una_),
            static_cast<unsigned long long>(window_packets));
}

void TcpSource::send_segment(std::uint64_t seq, bool is_retransmission) {
  Packet segment;
  segment.id = (static_cast<std::uint64_t>(flow_) << 40) + stats_.segments_sent;
  segment.kind = PacketKind::kBulk;
  segment.flow = flow_;
  segment.size_bytes = config_.segment.count();
  segment.src = src_;
  segment.dst = dst_;
  segment.set_tcp({seq, /*is_ack=*/false});
  ++stats_.segments_sent;
  if (is_retransmission) ++stats_.retransmissions;

  // Karn's rule: time only segments sent exactly once.
  if (!is_retransmission && !timed_seq_) {
    timed_seq_ = seq;
    timed_sent_at_ = sim_.now();
  }
  net_.send(std::move(segment));
  if (!timer_.valid() || snd_una_ == seq) arm_timer();
}

void TcpSource::arm_timer() {
  timer_.cancel();
  timer_ = sim_.schedule_in(rto_, [this] { on_timeout(); });
}

void TcpSource::on_packet(Packet&& p) {
  if (!p.has_tcp() || !p.tcp().is_ack || p.flow != flow_) return;
  const std::uint64_t ack = p.tcp().seq;
  on_ack(ack);
  if (ack_hook_) ack_hook_(sim_.now(), ack);
}

void TcpSource::on_ack(std::uint64_t cumulative_ack) {
  if (cumulative_ack <= snd_una_) {
    // Duplicate ack.  Only trigger fast retransmit for losses past the
    // last recovery point: go-back-N leaves a window of pre-loss
    // segments in flight whose (stale) dupacks must not retrigger it.
    if (++dupacks_ == kDupackThreshold && snd_una_ < snd_nxt_ &&
        snd_una_ >= recover_) {
      ++stats_.fast_retransmits;
      enter_loss_recovery();
    }
    return;
  }

  // New data acked.  With go-back-N the receiver may have buffered the
  // whole pre-loss window, so the cumulative ack can jump past snd_nxt_;
  // the send pointer must never trail snd_una_.
  const std::uint64_t newly_acked = cumulative_ack - snd_una_;
  stats_.segments_acked += newly_acked;
  snd_una_ = cumulative_ack;
  if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
  dupacks_ = 0;

  // RTT sample (Karn: only if the timed segment is now acked).
  if (timed_seq_ && *timed_seq_ < cumulative_ack) {
    const double sample_ms = (sim_.now() - timed_sent_at_).millis();
    if (!srtt_valid_) {
      srtt_ms_ = sample_ms;
      rttvar_ms_ = sample_ms / 2.0;
      srtt_valid_ = true;
    } else {
      // Jacobson: g = 1/8, h = 1/4.
      const double err = sample_ms - srtt_ms_;
      srtt_ms_ += err / 8.0;
      rttvar_ms_ += (std::abs(err) - rttvar_ms_) / 4.0;
    }
    const double rto_ms = srtt_ms_ + 4.0 * rttvar_ms_;
    rto_ = std::clamp(Duration::millis(rto_ms), kMinRto, kMaxRto);
    stats_.last_srtt_ms = srtt_ms_;
    timed_seq_.reset();
  }

  // Window growth: slow start below ssthresh, else congestion avoidance.
  for (std::uint64_t i = 0; i < newly_acked; ++i) {
    if (cwnd_ < ssthresh_) {
      cwnd_ += 1.0;
    } else {
      cwnd_ += 1.0 / cwnd_;
    }
  }
  cwnd_ = std::min(cwnd_, config_.receiver_window_packets);
  stats_.last_cwnd_packets = cwnd_;
  audit_window("on_ack", snd_una_, snd_nxt_, cwnd_, ssthresh_, config_);
  SIM_AUDIT(dupacks_ == 0,
            "TcpSource(on_ack): dupack counter %u survived new data", dupacks_);

  if (snd_una_ == snd_nxt_) {
    timer_.cancel();
    if (transfer_active_ && snd_una_ >= transfer_end_) {
      // Transfer complete: idle, then start the next file.
      transfer_active_ = false;
      ++stats_.transfers_completed;
      sim_.schedule_in(rng_.exponential_time(config_.mean_idle),
                       [this] { begin_transfer(); });
      return;
    }
  } else {
    arm_timer();  // restart for the new oldest outstanding segment
  }
  try_send();
}

void TcpSource::enter_loss_recovery() {
  // Tahoe: collapse to one segment and go back to snd_una.
  recover_ = snd_nxt_;
  const double flight = static_cast<double>(snd_nxt_ - snd_una_);
  ssthresh_ = std::max(2.0, flight / 2.0);
  cwnd_ = 1.0;
  dupacks_ = 0;
  timed_seq_.reset();  // Karn: outstanding timings are ambiguous now
  snd_nxt_ = snd_una_;
  send_segment(snd_nxt_, /*is_retransmission=*/true);
  ++snd_nxt_;
  arm_timer();
  audit_window("loss_recovery", snd_una_, snd_nxt_, cwnd_, ssthresh_,
               config_);
}

void TcpSource::on_timeout() {
  if (!transfer_active_) return;
  if (snd_una_ == snd_nxt_) return;  // nothing outstanding
  ++stats_.timeouts;
  rto_ = std::min(rto_ * 2, kMaxRto);  // exponential backoff
  enter_loss_recovery();
}

}  // namespace bolot::sim

// Correlated-loss channel model for the link datapath.
//
// Bolot's §5 finding is that losses on the 1992 INRIA->UMd path were
// essentially random (plg ~ 1).  Modern paths (cellular, Wi-Fi) are
// bursty: losses cluster in time because the underlying channel moves
// between good and bad states.  MarkovChannel covers that regime: an
// N-state Markov chain advanced once per packet at transmission-complete
// time, each state carrying a drop probability and an extra-delay
// distribution.  The 2-state special case with a lossless good state and
// a lossy bad state is the classic Gilbert-Elliott model, whose (p, q)
// analysis::fit_gilbert estimates from a measured loss indicator
// sequence.
//
// The stage lives inside Link (see link.h); this header holds the
// configuration type and the runtime chain.  MODEL_NOTES §13 explains why
// advancing channel state at completion time preserves the
// event-coalescing timing argument of MODEL_NOTES §10.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::sim {

/// One state of a Markov loss/delay channel.
struct ChannelState {
  /// Per-packet drop probability while the chain is in this state.
  Probability drop_probability = Probability::zero();
  /// Deterministic extra latency added to the propagation delay of every
  /// packet served in this state (a degraded radio path retransmitting at
  /// layer 2 looks like extra delay end to end).
  Duration extra_delay;
  /// Mean of an exponential jitter term added on top of extra_delay;
  /// zero = no jitter.  Sampled from the channel's own rng stream.
  Duration extra_delay_jitter;
};

/// Configuration of an N-state Markov channel.  The chain advances once
/// per packet at transmission-complete time: first the state transition
/// is sampled from `transitions`, then the (possibly new) state's drop
/// probability and delay distribution apply to the packet.
struct MarkovChannelConfig {
  std::vector<ChannelState> states;
  /// Row-major transition matrix, states.size()^2 entries; row i is the
  /// distribution of the next state given current state i and must sum
  /// to 1 (within 1e-9; validate() re-normalizes exact rounding noise).
  std::vector<double> transitions;
  std::size_t initial_state = 0;


  /// Throws std::invalid_argument on a malformed config (no states,
  /// wrong matrix size, probabilities outside [0,1], rows not summing
  /// to 1, initial_state out of range, negative delays).
  void validate() const;

  /// The 2-state Gilbert-Elliott special case: state 0 ("good") drops
  /// with `good_drop`, state 1 ("bad") drops with `bad_drop`;
  /// p = P(good->bad), q = P(bad->good).  `bad_extra_delay` adds latency
  /// while the channel is bad (zero = loss-only channel).
  static MarkovChannelConfig gilbert_elliott(
      Probability p, Probability q,
      Probability good_drop = Probability::zero(),
      Probability bad_drop = Probability::one(),
      Duration bad_extra_delay = {});

  /// Solves for the Gilbert-Elliott (p, q) hitting a target unconditional
  /// loss probability and packet loss gap (plg = mean loss-run length,
  /// = 1/q for a loss-only channel): q = 1/plg, p = q*ulp/(1-ulp).
  /// Requires 0 < ulp < 1 and plg >= 1 (and p <= 1 after solving).
  static MarkovChannelConfig from_loss_targets(Probability ulp, double plg,
                                               Duration bad_extra_delay = {});
};

/// Runtime Markov chain: owns the state index, per-state occupancy and
/// drop counters, and the rng stream.  Lives inside Link; advance() is
/// called once per packet from the completion event.
class MarkovChannel {
 public:
  /// `config` must be valid (validate() is called).
  MarkovChannel(const MarkovChannelConfig& config, Rng rng);

  struct Verdict {
    bool drop = false;
    Duration extra_delay;
  };

  /// Advances the chain one packet step and samples the packet's fate in
  /// the new state.  The per-state counters are updated here, so
  /// occupancy is measured in packets served, matching how the loss
  /// indicator sequence samples the chain.
  Verdict advance();

  std::size_t state() const { return state_; }
  std::size_t state_count() const { return states_.size(); }
  /// Packets that advanced the chain while it sat in state i.
  std::uint64_t state_packets(std::size_t i) const { return packets_[i]; }
  /// Packets dropped by state i.
  std::uint64_t state_drops(std::size_t i) const { return drops_[i]; }
  std::uint64_t total_packets() const;
  std::uint64_t total_drops() const;

  /// Structural invariants: state index in range, per-state drops never
  /// exceed per-state packets.  Link::audit_verify() calls this; the
  /// caller cross-checks the totals against its own drop accounting.
  void audit_verify() const;

 private:
  std::vector<ChannelState> states_;
  /// Row-major cumulative transition rows: sampling is one uniform draw
  /// plus a short forward scan (N is small).
  std::vector<double> cumulative_;
  std::size_t state_ = 0;
  Rng rng_;
  std::vector<std::uint64_t> packets_;
  std::vector<std::uint64_t> drops_;
};

}  // namespace bolot::sim

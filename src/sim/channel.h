// Correlated-loss channel model for the link datapath.
//
// Bolot's §5 finding is that losses on the 1992 INRIA->UMd path were
// essentially random (plg ~ 1).  Modern paths (cellular, Wi-Fi) are
// bursty: losses cluster in time because the underlying channel moves
// between a good and a bad state.  GilbertChannel covers that regime with
// the two-state Gilbert chain §5's statistics describe: the good state
// delivers every packet, the bad state drops every packet, and the chain
// advances once per packet at transmission-complete time.  Its (p, q) are
// what analysis::fit_gilbert estimates from a measured loss indicator
// sequence: stationary loss p/(p + q), clp = 1 - q, plg = 1/q.
//
// The stage lives inside Link (see link.h); this header holds the
// configuration type and the runtime chain.  MODEL_NOTES §13 explains why
// advancing channel state at completion time preserves the
// event-coalescing timing argument of MODEL_NOTES §10.
#pragma once

#include <array>
#include <cstdint>

#include "util/rng.h"
#include "util/units.h"

namespace bolot::sim {

/// The Gilbert loss channel: p = P(good -> bad), q = P(bad -> good).  The
/// chain starts in the good state.
struct GilbertChannelConfig {
  Probability p;
  Probability q;

  /// Solves for the (p, q) hitting a target unconditional loss
  /// probability and packet loss gap (plg = mean loss-run length = 1/q):
  /// q = 1/plg, p = q*ulp/(1-ulp).  Throws std::invalid_argument unless
  /// 0 < ulp < 1, plg >= 1 and the solved p <= 1.
  static GilbertChannelConfig from_loss_targets(Probability ulp, double plg);
};

/// Runtime Gilbert chain: owns the state, the per-state packet counters
/// and the rng stream.  Lives inside Link; advance() is called once per
/// packet from the completion event.
class GilbertChannel {
 public:
  GilbertChannel(const GilbertChannelConfig& config, Rng rng);

  /// Advances the chain one packet step and returns whether the packet is
  /// lost, i.e. whether the chain is now bad.  The per-state counters are
  /// updated here, so occupancy is measured in packets served, matching
  /// how the loss indicator sequence samples the chain.
  bool advance() {
    bad_ = rng_.uniform() >= (bad_ ? bad_threshold_ : good_threshold_);
    ++packets_[bad_];
    return bad_;
  }

  /// 0 = good, 1 = bad.
  std::size_t state() const { return bad_; }
  /// Packets that advanced the chain into state i; the bad state's are
  /// exactly its drops.
  std::uint64_t state_packets(std::size_t i) const { return packets_[i]; }
  std::uint64_t total_packets() const { return packets_[0] + packets_[1]; }

 private:
  /// A uniform draw at or above the current state's threshold puts the
  /// chain bad: 1 - p from good, q from bad.
  double good_threshold_;
  double bad_threshold_;
  bool bad_ = false;
  Rng rng_;
  std::array<std::uint64_t, 2> packets_{};
};

}  // namespace bolot::sim

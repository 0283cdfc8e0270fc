// A unidirectional link: finite drop-tail FIFO buffer + transmitter +
// propagation delay.  This is the component the paper's Fig.-3 model
// abstracts: a single server of rate mu with buffer K.
//
// An optional random-drop stage models the faulty Ethernet/FDDI interface
// cards reported by Mishra & Sanghi (up to 3% random loss on SURAnet),
// which the paper cites to explain part of the ~10% stationary probe loss.
//
// Datapath layout (allocation-free at steady state; see MODEL_NOTES §10):
// packets wait in a preallocated ring whose front slot is the packet in
// service; on transmission-complete they move to a second ring of
// in-flight packets ordered by arrival time, drained by a single
// re-arming "next arrival" event.  A packet traversing the link therefore
// costs two slab events (completion + arrival) with tiny [this] closures,
// and the number of *pending* events per link is O(1) regardless of how
// many packets are on the wire.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "sim/channel.h"
#include "sim/packet.h"
#include "sim/simulator.h"
#include "util/inplace_function.h"
#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::obs {
class MetricsRegistry;
}  // namespace bolot::obs

namespace bolot::sim {

class FluidAggregate;  // sim/fluid.h

/// Random Early Detection (Floyd & Jacobson 1993 — contemporary with the
/// paper) as an alternative to drop-tail, for the queue-management
/// ablation.  Thresholds are in packets against the EWMA queue length.
/// Implements the full arrival-time update including the idle-time
/// correction: a packet arriving to an empty queue sees the average
/// decayed by (1 - weight)^m, where m is the number of typical
/// packet-service slots the queue sat empty.
struct RedConfig {
  double min_threshold = 5.0;
  double max_threshold = 15.0;
  Probability max_probability = Probability::checked(0.1);
  double weight = 0.002;  // EWMA gain w_q
};

/// Typical packet size defining the service-slot length s used by RED's
/// idle-time correction (Floyd & Jacobson's parameter s = transmission
/// time of a small packet).
inline constexpr ByteSize kRedMeanPacket = ByteSize::bytes(512);

/// The largest buffer a Link accepts.  The whole buffer is reserved at
/// construction, so the bound keeps a mistyped K from exhausting memory;
/// it is the largest K anywhere in the tree (an effectively infinite
/// buffer for the experiments that want one).
inline constexpr std::size_t kMaxBufferPackets = 100'000;

struct LinkConfig {
  std::string name;
  Bandwidth rate = Bandwidth::mbps(1);  // transmission rate
  Duration propagation;                 // one-way propagation delay
  std::size_t buffer_packets = 64;      // K, counting the packet in service
  /// Faulty-interface loss per packet, in [0, 1); Probability::one() is
  /// rejected by the constructor (a link that drops everything is a
  /// misconfiguration, not a channel).
  Probability random_drop_probability;
  std::optional<RedConfig> red;         // unset = pure drop-tail
  /// Gilbert loss channel applied at transmission-complete time
  /// (MODEL_NOTES §13).  Unset = ideal channel, and the fast path is
  /// untouched.
  std::optional<GilbertChannelConfig> channel;
};

enum class DropCause : std::uint8_t {
  kOverflow,  // buffer full (drop-tail)
  kRandom,    // faulty-interface stage
  kRed,       // RED early drop
  kChannel,   // Gilbert channel stage
};

struct LinkStats {
  std::uint64_t offered = 0;         // packets handed to enqueue()
  std::uint64_t delivered = 0;       // packets that reached the sink
  std::uint64_t overflow_drops = 0;  // buffer-full drops
  std::uint64_t random_drops = 0;    // faulty-interface drops
  std::uint64_t red_drops = 0;       // RED early drops
  std::uint64_t channel_drops = 0;   // Gilbert channel-stage drops
  std::int64_t bytes_delivered = 0;
  std::size_t max_queue = 0;         // high-water mark incl. in service
  Duration busy;                     // cumulative transmitter busy time

  std::uint64_t total_drops() const {
    return overflow_drops + random_drops + red_drops + channel_drops;
  }
  double utilization(Duration elapsed) const {
    return elapsed.is_zero() ? 0.0 : busy / elapsed;
  }
};

class Link {
 public:
  /// Hooks live inline in the Link (no heap, no std::function): a closure
  /// must fit kHookCapacity bytes, enforced at compile time.
  static constexpr std::size_t kHookCapacity = 48;

  using Sink = util::InplaceFunction<void(Packet&&), kHookCapacity>;
  /// Called for every dropped packet (after stats are updated); used by
  /// the tracing layer.
  using DropHook =
      util::InplaceFunction<void(const Packet&, DropCause cause),
                            kHookCapacity>;
  /// Observation hook invoked at the instant a packet arrives at the far
  /// end (after service + propagation); does not affect forwarding.  Fires
  /// even on links without a sink (instrumented dead-ends).  `at` minus
  /// the packet's hop_start is its sojourn at this link.
  using DeliveryHook =
      util::InplaceFunction<void(const Packet&, SimTime at), kHookCapacity>;
  /// PDES boundary egress (see sim/pdes.h): called at transmission-complete
  /// time with the packet, its computed far-end arrival time and the time
  /// the flight ring would have armed that arrival, instead of pushing onto
  /// the local flight ring.  The receiving domain later feeds the packet
  /// back through deliver_remote().
  using RemoteEgress =
      util::InplaceFunction<void(SimTime arrive, SimTime armed, Packet&&),
                            kHookCapacity>;

  Link(Simulator& sim, LinkConfig config, Rng drop_rng);
  ~Link();

  /// Hands a packet to the link.  May drop (buffer full or random stage);
  /// an admitted packet's hop_start is stamped with the current time.
  void enqueue(Packet&& packet);

  /// Pauses/resumes the transmitter (a frozen gateway: packets queue but
  /// nothing is clocked onto the wire).  The packet mid-transmission
  /// completes, and packets already past the transmitter stay in flight
  /// and arrive on time; the queue then holds until resume.  Models the
  /// periodic gateway stalls Sanghi et al. diagnosed (the paper's
  /// "dramatic delay increase every 90 seconds" example).
  void pause();
  void resume();

  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Installs the link's one observer of each kind.  A second install
  /// throws std::logic_error naming the link.
  void set_drop_hook(DropHook hook);
  void set_delivery_hook(DeliveryHook hook);

  /// Marks this link as a PDES domain boundary: packets leaving the
  /// transmitter are handed to `egress` (stamped with their arrival time)
  /// instead of the local flight ring.  The propagation span then lives in
  /// the cross-domain channel, which is exactly what gives the receiving
  /// domain its lookahead.  Sending-side stages (queue, transmitter,
  /// channel model, drop hook, FIFO clamp) are untouched; the delivery
  /// hook and the sink fire on the receiving side via deliver_remote().
  void set_remote_egress(RemoteEgress egress) {
    remote_egress_ = std::move(egress);
  }

  /// Receiving-domain half of a boundary link: runs the delivery hook and
  /// the sink for a packet that crossed via the remote egress.  Must be
  /// called from within an event dispatched at `at` in the receiving
  /// domain (Simulator::dispatch_external).
  void deliver_remote(SimTime at, Packet&& packet) {
    if (delivery_hook_) delivery_hook_(packet, at);
    if (sink_) sink_(std::move(packet));
  }

  const LinkConfig& config() const { return config_; }
  const LinkStats& stats() const { return stats_; }

  /// Reassigns the faulty-interface drop rate after construction, with
  /// the constructor's [0, 1) guard.  Lets scenarios (e.g. tomography
  /// meshes) seed per-link loss on an already-instantiated topology.
  void set_random_drop_probability(Probability p);

  /// Packets currently buffered, including the one in service.
  std::size_t queue_length() const { return queue_.size(); }
  /// Bytes currently buffered (whole packets, including the one in
  /// service at its full size — a slight overestimate mid-transmission).
  std::int64_t backlog_bytes() const { return backlog_bytes_; }

  /// Time to clock one packet of `size` onto the wire.  Memoized on the
  /// last size seen: fixed-size flows (probes, CBR, TCP segments) pay the
  /// divide-and-round once instead of per packet.
  Duration service_time(ByteSize size) const {
    if (size.count() != service_memo_bytes_) {
      service_memo_bytes_ = size.count();
      service_memo_ = config_.rate.transmission_time(size);
    }
    return service_memo_;
  }

  /// Attaches fluid demand (sim/fluid.h): builds the link's
  /// FluidAggregate on this link's Simulator and rate, from the demand's
  /// mean rate, envelope states and holding time (0 states: constant), and
  /// the wait and envelope seeds.  The transmitter still serves at the
  /// link rate, and each delivered packet carries the aggregate's sampled
  /// M/D/1 queueing delay.  An envelope's first edge is scheduled now.
  /// Call before traffic flows, at most once (a second call throws
  /// std::logic_error); links without one are byte-for-byte untouched.
  void attach_fluid(Bandwidth mean_rate, std::size_t envelope_states,
                    Duration mean_holding, Rng wait_rng, Rng envelope_rng);

  /// Utilization over [0, now]: stats().utilization, plus the attached
  /// fluid aggregate's share capped at 1 in total, so a fluid-saturated
  /// link reads full rather than near-zero.  (A service span counts as
  /// busy from its start, so the packetized share alone can read a little
  /// above 1 mid-span.)  The `utilization` gauge of publish_metrics and
  /// obs::watch_utilization both read it.
  double utilization() const;

  /// Registers this link's observables with a MetricsRegistry, prefixed
  /// with `prefix` ("<prefix>.delivered", "<prefix>.drops_early", ...);
  /// an empty prefix means the link name.  The two directions of a duplex
  /// link share one name, so publishing both needs distinct prefixes.
  /// Everything is published as snapshot-time probes reading the stats
  /// the link already maintains, so the packet path pays nothing.
  void publish_metrics(obs::MetricsRegistry& registry,
                       const std::string& prefix = {}) const;

  /// Deep per-link walk, always compiled (callers are tests and the fuzz
  /// harness; audit builds also run it at every drain): packet
  /// conservation (offered == delivered + dropped + queued), byte-exact
  /// backlog accounting, in-flight FIFO ordering, and the transmitter /
  /// arrival-event arming discipline.
  void audit_verify() const;

 private:
  // RED's tests read the average-queue estimate through this peer; no
  // program reads it.
  friend class RedTestPeer;

  /// The conservation identity, checked at the datapath's drain points in
  /// audit builds: every packet handed to enqueue() is exactly one of
  /// delivered (past the transmitter), dropped, or still queued.  A
  /// packet duplicated or lost by the ring/event plumbing breaks this sum
  /// immediately, which localizes the corruption to the current event.
  void audit_conservation() const {
    SIM_AUDIT(
        stats_.offered ==
            stats_.delivered + stats_.total_drops() + queue_.size(),
        "Link %s: conservation broken — offered %llu != delivered %llu + "
        "dropped %llu + queued %zu (in flight %zu)",
        config_.name.c_str(),
        static_cast<unsigned long long>(stats_.offered),
        static_cast<unsigned long long>(stats_.delivered),
        static_cast<unsigned long long>(stats_.total_drops()), queue_.size(),
        flight_.size());
  }
  struct InFlight {
    SimTime arrive_at;
    Packet packet;
  };

  /// Starts serving queue_.front().  Callers must have checked !busy_ &&
  /// !paused_ and a non-empty queue.  `rearm` is true only when called
  /// from the completion callback itself, where the event slot can be
  /// reused (Simulator::rearm_in).
  void start_front_transmission(bool rearm);
  void on_transmission_complete();
  /// Retires queue_.front() through the channel stage: delivered packets
  /// move to the flight ring (with any fluid wait, FIFO-clamped),
  /// channel-dropped ones take the drop path.
  void complete_front();
  /// Schedules the single outstanding arrival event for flight_.front();
  /// `rearm` is true only when called from the arrival callback itself.
  void arm_arrival(bool rearm);
  void on_arrival();
  void drop(Packet&& packet, DropCause cause);
  bool red_admits(std::size_t queue_length);

  Simulator& sim_;
  LinkConfig config_;
  Rng drop_rng_;
  /// Channel model, engaged only when config_.channel is set.  Its rng is
  /// split from drop_rng_ at construction *only in that case*, so
  /// channel-free links draw the exact pre-channel random streams.
  std::optional<GilbertChannel> channel_;
  /// Fluid demand aggregate (attach_fluid); null on the pure packet path,
  /// which then compiles to the exact pre-fluid behavior.
  std::unique_ptr<FluidAggregate> fluid_;
  /// Latest arrival time pushed to flight_ or handed to remote_egress_;
  /// a fluid-wait arrival is clamped to this so the in-flight ring stays
  /// FIFO.  Maintained on the local path only when fluid_ is engaged,
  /// always on the remote path.
  SimTime last_flight_arrival_;
  Sink sink_;
  RemoteEgress remote_egress_;
  DropHook drop_hook_;
  DeliveryHook delivery_hook_;

  /// Waiting packets; when busy_, front() is the packet in service.  Full
  /// capacity (buffer_packets) is reserved at construction, so enqueue
  /// never allocates.
  util::RingBuffer<Packet> queue_;
  /// Packets past the transmitter, FIFO by arrival time (propagation is
  /// constant, so transmit order == arrival order).  Only front() has an
  /// event scheduled; on_arrival re-arms for the next.
  util::RingBuffer<InFlight> flight_;
  bool arrival_armed_ = false;
  std::int64_t backlog_bytes_ = 0;
  bool busy_ = false;
  LinkStats stats_;

  bool paused_ = false;

  // service_time() memoization (see the accessor).
  mutable std::int64_t service_memo_bytes_ = -1;
  mutable Duration service_memo_;

  // RED state.
  double red_avg_ = 0.0;
  std::int64_t red_count_ = -1;  // packets since the last RED drop
  /// Start of the current *serviceable* idle span (queue empty and link
  /// not paused); the idle-time correction decays red_avg_ over that span
  /// on arrival to an empty queue.  The link starts idle at t = 0.
  SimTime idle_since_;
  /// Serviceable idle time accrued before a pause but not yet applied to
  /// red_avg_ (no packet arrived in the span).  Paused-but-empty time is
  /// deliberately excluded: a frozen transmitter could not have drained
  /// anything, so it must not decay the average.
  Duration red_idle_accrued_;
};

}  // namespace bolot::sim

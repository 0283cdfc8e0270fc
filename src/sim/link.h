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

#include <array>
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
  /// Typical packet size defining the service-slot length s used by the
  /// idle-time correction (Floyd & Jacobson's parameter s = transmission
  /// time of a small packet).
  ByteSize mean_packet = ByteSize::bytes(512);
};

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
  /// Correlated loss/delay channel applied at transmission-complete time
  /// (Gilbert-Elliott and general N-state Markov chains; MODEL_NOTES §13).
  /// Unset = ideal channel, and the fast path is untouched.
  std::optional<MarkovChannelConfig> channel;
  /// Trace-driven transmitter: when set, the constant-rate server is
  /// replaced by the recorded delivery opportunities (rate_bps is then
  /// ignored).  Shared so a sweep can replay one loaded trace across many
  /// links without copying it.
  std::shared_ptr<const DeliverySchedule> schedule;
};

enum class DropCause : std::uint8_t {
  kOverflow,  // buffer full (drop-tail)
  kRandom,    // faulty-interface stage
  kRed,       // RED early drop
  kChannel,   // Markov channel-model stage
};

struct LinkStats {
  std::uint64_t offered = 0;         // packets handed to enqueue()
  std::uint64_t delivered = 0;       // packets that reached the sink
  std::uint64_t overflow_drops = 0;  // buffer-full drops
  std::uint64_t random_drops = 0;    // faulty-interface drops
  std::uint64_t red_drops = 0;       // RED early drops
  std::uint64_t channel_drops = 0;   // Markov channel-stage drops
  std::int64_t bytes_delivered = 0;
  std::size_t max_queue = 0;         // high-water mark incl. in service
  /// Cumulative transmitter busy time.  Constant-rate mode only: a
  /// trace-driven transmitter has no service spans, so `busy` stays zero
  /// there (utilization reads 0).
  Duration busy;
  /// Trace-driven mode only: delivery opportunities that fired with an
  /// empty or paused queue and transmitted nothing (cellsim's wasted
  /// opportunities).  Opportunities skipped while the link idled count
  /// too — the radio had the slot either way.
  std::uint64_t wasted_opportunities = 0;

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
  /// Observation hooks form small chains (e.g. PacketLog + a counting drop
  /// hook on the same link); each link holds up to kMaxHooks of each kind.
  static constexpr std::size_t kMaxHooks = 4;

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
  /// time with the packet and its computed far-end arrival time, instead of
  /// pushing onto the local flight ring.  The receiving domain later feeds
  /// the packet back through deliver_remote().
  using RemoteEgress =
      util::InplaceFunction<void(SimTime arrive, Packet&&), kHookCapacity>;

  Link(Simulator& sim, LinkConfig config, Rng drop_rng);

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
  bool paused() const { return paused_; }

  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Appends a hook, chaining after any already installed (fires in
  /// installation order).  Throws std::length_error past kMaxHooks.
  void add_drop_hook(DropHook hook);
  void add_delivery_hook(DeliveryHook hook);

  /// Replaces the whole chain with the given hook (empty hook = clear).
  void set_drop_hook(DropHook hook);
  void set_delivery_hook(DeliveryHook hook);

  /// Marks this link as a PDES domain boundary: packets leaving the
  /// transmitter are handed to `egress` (stamped with their arrival time)
  /// instead of the local flight ring.  The propagation span then lives in
  /// the cross-domain channel, which is exactly what gives the receiving
  /// domain its lookahead.  Sending-side stages (queue, transmitter,
  /// channel model, drop hooks, FIFO clamp) are untouched; delivery hooks
  /// and the sink fire on the receiving side via deliver_remote().
  void set_remote_egress(RemoteEgress egress) {
    remote_egress_ = std::move(egress);
  }
  bool has_remote_egress() const { return bool(remote_egress_); }

  /// Receiving-domain half of a boundary link: runs the delivery hooks and
  /// the sink for a packet that crossed via the remote egress.  Must be
  /// called from within an event dispatched at `at` in the receiving
  /// domain (Simulator::dispatch_external).
  void deliver_remote(SimTime at, Packet&& packet) {
    for (std::uint8_t i = 0; i < delivery_hook_count_; ++i) {
      delivery_hooks_[i](packet, at);
    }
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
  bool busy() const { return busy_; }
  /// Packets past the transmitter, still propagating toward the far end.
  std::size_t in_flight() const { return flight_.size(); }

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

  /// Current RED average queue estimate (0 when RED is off); for tests.
  double red_average_queue() const { return red_avg_; }

  /// The runtime channel model, when one is configured (for tests and the
  /// audit harness; scenario code reads loss structure from the stats).
  const MarkovChannel* channel() const {
    return channel_ ? &*channel_ : nullptr;
  }
  bool trace_driven() const { return schedule_ != nullptr; }

  /// Attaches a fluid aggregate (sim/fluid.h): the transmitter serves
  /// packets against the aggregate's time-varying residual rate (or, in
  /// kMd1Wait mode, adds its sampled queueing delay).  The aggregate must
  /// be driven by this link's Simulator (same PDES domain), its capacity
  /// must equal rate_bps, and trace-driven links cannot take one.  Call
  /// before traffic flows; links without one are byte-for-byte untouched.
  void attach_fluid(FluidAggregate& fluid);
  const FluidAggregate* fluid() const { return fluid_; }

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

  /// Dispatches to the configured transmitter: constant-rate service
  /// (start_front_transmission) or the trace-driven opportunity replay
  /// (arm_opportunity).  Callers must have checked !busy_ && !paused_ and
  /// a non-empty queue.
  void start_transmitter(bool rearm);
  /// `rearm` is true only when called from the completion callback
  /// itself, where the event slot can be reused (Simulator::rearm_in).
  void start_front_transmission(bool rearm);
  void on_transmission_complete();
  /// Retires queue_.front() through the channel stage: delivered packets
  /// move to the flight ring (with any channel extra delay, FIFO-clamped),
  /// channel-dropped ones take the drop path.  Shared by the constant-rate
  /// completion event and the trace-driven opportunity drain.
  void complete_front();
  /// Trace-driven transmitter: schedules the next delivery opportunity at
  /// or after now (earlier ones are wasted), marking the link busy.
  void arm_opportunity(bool rearm);
  void on_opportunity();
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
  std::optional<MarkovChannel> channel_;
  /// Borrowed from config_.schedule (non-null iff trace-driven).
  const DeliverySchedule* schedule_ = nullptr;
  /// Borrowed fluid demand aggregate (attach_fluid); null on the pure
  /// packet path, which then compiles to the exact pre-fluid behavior.
  FluidAggregate* fluid_ = nullptr;
  /// Index of the next delivery opportunity to consider (monotone;
  /// wraps through the schedule cyclically via DeliverySchedule::at).
  std::uint64_t schedule_next_ = 0;
  /// Bytes earned by past opportunities but not yet spent on the front
  /// packet (cellsim's partial-packet carry).  Reset when the queue
  /// drains: credit never accrues while there is nothing to send.
  std::int64_t schedule_credit_bytes_ = 0;
  /// Latest arrival time pushed to flight_; channel / fluid-wait extra
  /// delay is clamped to this so the in-flight ring stays FIFO (only
  /// maintained, and only needed, when channel_ or fluid_ is engaged).
  SimTime last_flight_arrival_;
  Sink sink_;
  RemoteEgress remote_egress_;
  std::array<DropHook, kMaxHooks> drop_hooks_;
  std::array<DeliveryHook, kMaxHooks> delivery_hooks_;
  std::uint8_t drop_hook_count_ = 0;
  std::uint8_t delivery_hook_count_ = 0;

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

// One shard of a parallel simulation (see sim/pdes.h): a Simulator plus
// the channels connecting it to its neighbor domains, advanced in claims
// of at most kBatchEvents events by whichever worker thread holds it.
//
// Synchronization is conservative lookahead without null messages.  Each
// domain publishes an atomic safe-time S: a promise that no event in this
// domain will ever execute before S again.  Because every cut edge is a
// propagation link, a handoff emitted at local time t arrives downstream
// at t + propagation >= S + lookahead — so a consumer may execute
// everything strictly before min over inbound channels of
// (S_source + lookahead), its *horizon*.  Handoffs already emitted but
// not yet visible (ring overflow spill) cap the producer's S instead
// (SpscChannel::spill_bound_ns), keeping the bound sound.
//
// A claim publishes S every kPublishEvents dispatches, not only when it
// ends, and a claim that reaches its horizon publishes, re-reads the
// horizon and keeps going if it moved, so two neighbors advance side by
// side instead of each waiting out the other's claim (MODEL_NOTES §14).
//
// Determinism: cross-domain arrivals are merged into the event stream
// from a staging heap ordered by (arrival time, arm time, global link
// uid, per-link send stamp).  At a timestamp tie with a local event the
// one armed earlier goes first, as in the sequential kernel, whose
// equal-time order is arm order; equal arm times put the handoff first.
// Every rule depends only on simulation state, never on thread timing,
// so every run — any thread count, including one — executes the
// identical event sequence.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/link.h"
#include "sim/simulator.h"
#include "sim/spsc_channel.h"
#include "util/time.h"

namespace bolot::sim {

class ParallelSimulation;

/// Per-domain counters of a sharded run, cumulative over every run_until
/// call; ParallelSimulation::stats() says which ones are deterministic.
struct DomainStats {
  std::uint64_t events = 0;          // events dispatched here
  std::uint64_t handoffs_in = 0;     // of which cross-domain arrivals
  std::uint64_t claims = 0;          // advance() calls
  std::uint64_t stalled_claims = 0;  // claims that dispatched nothing
  std::uint64_t safe_publishes = 0;  // stores that raised the safe time
  std::uint64_t ring_spills = 0;     // outbound handoffs that found a ring full
};

class Domain {
 public:
  static constexpr std::int64_t kNever = SpscChannel::kNever;

  Domain() = default;
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  Simulator& simulator() { return sim_; }
  const Simulator& simulator() const { return sim_; }

 private:
  friend class ParallelSimulation;

  struct Inbound {
    SpscChannel* channel = nullptr;
    const Domain* source = nullptr;
    std::int64_t lookahead_ns = 0;
  };

  /// Heap order for staged handoffs: earliest arrival first; ties broken
  /// by arm time, then global link uid, then per-link send stamp.  All
  /// four are pure simulation state — the merge order is independent of
  /// when the handoffs became visible.
  struct StagedAfter {
    bool operator()(const Handoff& a, const Handoff& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.armed != b.armed) return a.armed > b.armed;
      if (a.link != b.link) return a.link > b.link;
      return a.stamp > b.stamp;
    }
  };

  /// Exclusive-execution claim; domains are driven by whichever worker
  /// wins the exchange, so any number of threads (including one) makes
  /// progress on every domain.
  bool try_claim() { return !claimed_.exchange(true, std::memory_order_acquire); }
  void release() { claimed_.store(false, std::memory_order_release); }

  /// Runs up to `max_events` events that are provably safe, publishing a
  /// new safe time every `publish_every` of them, each time the next event
  /// reaches the horizon, and once more at the end.  Returns true if the
  /// call made progress (executed events or raised the safe time).
  /// `links_by_uid` maps Handoff::link to the Link whose deliver_remote
  /// runs in this domain.  Caller must hold the claim.
  bool advance(SimTime end, std::size_t max_events, std::size_t publish_every,
               const std::vector<Link*>& links_by_uid);

  /// Reads every source's safe time, then drains its channel into the
  /// staging heap; returns the horizon min(S_source + lookahead).
  std::int64_t read_horizon();

  /// Earliest pending local event or staged handoff (kNever if none).
  std::int64_t next_event_ns() const;

  /// Flushes outbound spill and publishes min(next event, `horizon`,
  /// spill bounds) if it raises the safe time.  Returns whether every
  /// outbound handoff is now visible (all spills empty).
  bool publish(std::int64_t horizon);

  Simulator sim_;
  std::vector<Inbound> inbound_;
  std::vector<SpscChannel*> outbound_;
  std::priority_queue<Handoff, std::vector<Handoff>, StagedAfter> staged_;
  std::atomic<std::int64_t> safe_ns_{0};
  std::atomic<bool> claimed_{false};
  /// True once this domain can do nothing more at or before `end`; only
  /// meaningful within one ParallelSimulation::run_until call (reset at
  /// entry).  Written under the claim, read by the driver loop.
  std::atomic<bool> done_{false};
  /// Written under the claim; read by ParallelSimulation::stats() after
  /// run_until has joined its workers.
  DomainStats stats_;
};

}  // namespace bolot::sim

// Parallel discrete-event kernel: shards one simulation across domains
// that advance concurrently under conservative propagation-delay
// lookahead, producing the event stream of the sequential kernel.
//
// Usage:
//   ParallelSimulation psim(4);
//   Network net(psim.simulator(0), seed);
//   ... build topology, passing psim.simulator(domain_of(node)) to
//       add_link / add_duplex_link and to every source at a node ...
//   net.compute_routes();
//   psim.attach(net, node_domain);   // wires cut links to SPSC channels
//   psim.run_until(end);             // drives all domains, any thread count
//
// The partition must put every object that touches a node's outgoing
// links (sources at the node, the node's forwarding sinks) in that node's
// domain, and every cut edge must be a link with positive propagation
// delay — attach() rejects zero-lookahead cuts.  Within those rules the
// sharded run is deterministic for any worker count: domain.h explains
// the arm-time merge order and the safe-time protocol.
//
// Worker threads come only from an optional process-wide donor that the
// caller installs with set_thread_donor, typically lending a
// runner::ThreadPool it owns (the sim layer never depends on the runner);
// with no donor — or a one-thread pool — the calling thread drives every
// domain itself and the run still completes, just without speedup.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/domain.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/spsc_channel.h"
#include "util/time.h"

namespace bolot::sim {

class ParallelSimulation {
 public:
  /// Worker-thread donor: called with a job to run on some other thread.
  /// The job is self-contained (owns its state via shared_ptr) and safe to
  /// run late or never — run_until() always completes on the calling
  /// thread alone.
  using ThreadDonor = std::function<void(std::function<void()>)>;

  explicit ParallelSimulation(std::size_t domains);

  Simulator& simulator(std::size_t domain) {
    return domains_.at(domain).simulator();
  }

  /// Wires every cross-domain link of `net` to an SPSC handoff channel
  /// (one per ordered domain pair; lookahead = min propagation over the
  /// pair's links).  `node_domain[n]` is the domain owning node n.
  /// Computes routes if needed (routing is frozen once the run starts).
  /// Throws std::invalid_argument if a cut link has zero propagation
  /// delay (MODEL_NOTES §14): such a topology must run on one domain.
  void attach(Network& net, const std::vector<std::size_t>& node_domain);

  /// Advances every domain to `end` (inclusive, like
  /// Simulator::run_until); on return all domain clocks read `end` and
  /// all cross-domain traffic due at or before `end` has been delivered.
  /// Callable repeatedly with increasing `end` (slice stepping).  An
  /// exception thrown by an event callback on any thread stops every
  /// worker and is rethrown here once they are all out of the domains;
  /// the throwing event is dropped, and a later call resumes the run.
  void run_until(SimTime end);

  /// Total events dispatched across all domains.  Matches the sequential
  /// kernel's count for the same topology: a boundary arrival costs one
  /// dispatched event in the receiving domain, exactly like the flight
  /// ring's arrival event does sequentially.
  std::uint64_t events_dispatched() const;

  /// Per-domain counters, cumulative over every run_until call; read them
  /// between calls.  `events` and `handoffs_in` are deterministic: fixed
  /// by the model and the partition, equal at every worker count, and
  /// `events` sums to events_dispatched().  `claims`, `stalled_claims`,
  /// `safe_publishes` and `ring_spills` record how the workers happened
  /// to interleave and vary from run to run.
  std::vector<DomainStats> stats() const;

  /// Deep-walks every domain's event queue invariants (tests; audit
  /// builds also do this inline every kAuditStride events per domain).
  void audit_verify() const;

  /// Installs (or clears) the process-wide worker donor.  Thread-safe.
  static void set_thread_donor(ThreadDonor donor);

 private:
  /// Events per claim before the worker releases the domain and moves on,
  /// so a single worker still round-robins every domain.
  static constexpr std::size_t kBatchEvents = 1024;
  /// Events between safe-time publishes inside a claim, so a neighbor's
  /// horizon advances while this domain runs.  On the perf ledger's
  /// two-domain mesh every value from 16 to 128 ran equally fast, and
  /// publishing only when the claim ends (1024) lost most of the gain.
  static constexpr std::size_t kPublishEvents = 64;

  /// Claims and advances domains until every one is done for `end` or
  /// `stop` is raised, scanning from `home` so each worker keeps to its
  /// own domain first.  A throwing domain is released before the
  /// exception leaves.
  void drive(SimTime end, std::size_t home, const std::atomic<bool>& stop);

  std::deque<Domain> domains_;       // deque: Domain is pinned (atomics)
  std::deque<SpscChannel> channels_; // deque: channels are pinned too
  std::vector<Link*> links_by_uid_;
  bool attached_ = false;
};

}  // namespace bolot::sim

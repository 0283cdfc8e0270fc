#include "sim/pdes.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace bolot::sim {

namespace {

std::mutex& donor_mutex() {
  static std::mutex m;
  return m;
}

ParallelSimulation::ThreadDonor& donor_slot() {
  static ParallelSimulation::ThreadDonor donor;
  return donor;
}

/// Shared between run_until and the donated helper jobs, so a helper that
/// fires after the run (or after the ParallelSimulation is gone) exits
/// without touching freed state.
struct DriveState {
  ParallelSimulation* owner = nullptr;
  SimTime end;
  std::size_t next_home = 1;  // the calling thread's home domain is 0
  std::mutex mutex;
  std::condition_variable cv;
  int active = 0;
  bool expired = false;
};

}  // namespace

void ParallelSimulation::set_thread_donor(ThreadDonor donor) {
  std::lock_guard<std::mutex> lock(donor_mutex());
  donor_slot() = std::move(donor);
}

ParallelSimulation::ParallelSimulation(std::size_t domains) {
  if (domains == 0) {
    throw std::invalid_argument("ParallelSimulation: need at least 1 domain");
  }
  for (std::size_t i = 0; i < domains; ++i) domains_.emplace_back();
}

void ParallelSimulation::attach(Network& net,
                                const std::vector<std::size_t>& node_domain) {
  if (attached_) {
    throw std::logic_error("ParallelSimulation: attach called twice");
  }
  if (node_domain.size() != net.node_count()) {
    throw std::invalid_argument(
        "ParallelSimulation: node_domain must cover every node");
  }
  for (std::size_t d : node_domain) {
    if (d >= domains_.size()) {
      throw std::invalid_argument("ParallelSimulation: domain out of range");
    }
  }
  net.compute_routes();  // freeze routing before threads exist

  links_by_uid_.resize(net.link_count());
  const std::size_t n_domains = domains_.size();
  // Pass 1: find the cut pairs and each pair's lookahead (min propagation
  // over its links — the conservative bound the safe-time protocol uses).
  constexpr std::int64_t kNoPair = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> pair_lookahead(n_domains * n_domains, kNoPair);
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    links_by_uid_[i] = &net.link_at(i);
    const std::size_t sd = node_domain[net.link_source(i)];
    const std::size_t td = node_domain[net.link_target(i)];
    if (sd == td) continue;
    const std::int64_t prop =
        net.link_at(i).config().propagation.count_nanos();
    if (prop <= 0) {
      throw std::invalid_argument(
          "ParallelSimulation: cut link '" + net.link_at(i).config().name +
          "' has no propagation delay (zero lookahead); repartition or run "
          "with one domain");
    }
    std::int64_t& la = pair_lookahead[sd * n_domains + td];
    la = std::min(la, prop);
  }
  // Pass 2: one channel per cut pair, wired into both endpoint domains.
  std::vector<SpscChannel*> pair_channel(n_domains * n_domains, nullptr);
  for (std::size_t sd = 0; sd < n_domains; ++sd) {
    for (std::size_t td = 0; td < n_domains; ++td) {
      const std::int64_t la = pair_lookahead[sd * n_domains + td];
      if (la == kNoPair) continue;
      channels_.emplace_back();
      SpscChannel& chan = channels_.back();
      chan.set_lookahead(Duration::nanos(la));
      pair_channel[sd * n_domains + td] = &chan;
      domains_[sd].outbound_.push_back(&chan);
      domains_[td].inbound_.push_back(
          Domain::Inbound{&chan, &domains_[sd], la});
    }
  }
  // Pass 3: route each cut link's egress into its pair's channel.  The
  // per-link stamp starts at 0 and lives in the closure — it is the FIFO
  // tiebreak for same-nanosecond handoffs on one link.
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    const std::size_t sd = node_domain[net.link_source(i)];
    const std::size_t td = node_domain[net.link_target(i)];
    if (sd == td) continue;
    SpscChannel* chan = pair_channel[sd * n_domains + td];
    net.link_at(i).set_remote_egress(
        [chan, uid = static_cast<std::uint32_t>(i),
         stamp = std::uint64_t{0}](SimTime at, Packet&& p) mutable {
          chan->push(Handoff{at, uid, stamp++, std::move(p)});
        });
  }
  attached_ = true;
}

void ParallelSimulation::drive(SimTime end, std::size_t home) {
  const std::size_t n = domains_.size();
  bool all_done = false;
  while (!all_done) {
    bool progress = false;
    all_done = true;
    for (std::size_t k = 0; k < n; ++k) {
      Domain& d = domains_[(home + k) % n];
      if (d.done_.load(std::memory_order_acquire)) continue;
      if (!d.try_claim()) {
        all_done = false;  // another worker owns it; not proven done
        continue;
      }
      if (!d.done_.load(std::memory_order_relaxed)) {
        progress |=
            d.advance(end, kBatchEvents, kPublishEvents, links_by_uid_);
      }
      const bool done = d.done_.load(std::memory_order_relaxed);
      d.release();
      if (!done) all_done = false;
    }
    if (!all_done && !progress) std::this_thread::yield();
  }
}

void ParallelSimulation::run_until(SimTime end) {
  for (Domain& d : domains_) d.done_.store(false, std::memory_order_relaxed);

  ThreadDonor donor;
  {
    std::lock_guard<std::mutex> lock(donor_mutex());
    donor = donor_slot();
  }
  std::shared_ptr<DriveState> state;
  if (donor && domains_.size() > 1) {
    state = std::make_shared<DriveState>();
    state->owner = this;
    state->end = end;
    for (std::size_t i = 1; i < domains_.size(); ++i) {
      donor([state] {
        std::size_t home = 0;
        {
          std::lock_guard<std::mutex> lock(state->mutex);
          if (state->expired) return;
          ++state->active;
          home = state->next_home++;
        }
        state->owner->drive(state->end, home);
        {
          std::lock_guard<std::mutex> lock(state->mutex);
          --state->active;
        }
        state->cv.notify_all();
      });
    }
  }

  drive(end, 0);

  if (state) {
    // Late helpers must never touch this object again: mark the state
    // expired (jobs not yet started bail out) and wait out the ones
    // already inside drive().
    std::unique_lock<std::mutex> lock(state->mutex);
    state->expired = true;
    state->cv.wait(lock, [&] { return state->active == 0; });
  }

  // Match Simulator::run_until's tail: an idle domain still reports
  // now() == end.
  for (Domain& d : domains_) d.sim_.advance_to(end);
}

std::uint64_t ParallelSimulation::events_dispatched() const {
  std::uint64_t total = 0;
  for (const Domain& d : domains_) total += d.simulator().events_dispatched();
  return total;
}

std::vector<DomainStats> ParallelSimulation::stats() const {
  std::vector<DomainStats> out;
  out.reserve(domains_.size());
  for (const Domain& d : domains_) {
    DomainStats s = d.stats_;
    for (const SpscChannel* chan : d.outbound_) {
      s.ring_spills += chan->spilled();
    }
    out.push_back(s);
  }
  return out;
}

void ParallelSimulation::audit_verify() const {
  for (const Domain& d : domains_) d.simulator().audit_verify();
}

}  // namespace bolot::sim

// Simulation kernel: virtual clock plus event dispatch loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "sim/event_queue.h"
#include "util/audit.h"
#include "util/time.h"

namespace bolot::sim {

class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` from now (delay >= 0).  Templated so
  /// the closure is constructed straight into its event slot (see
  /// EventQueue::schedule) with the whole path inlined.
  template <typename F>
  EventHandle schedule_in(Duration delay, F&& fn) {
    if (delay.is_negative()) {
      throw std::invalid_argument("Simulator: negative delay");
    }
    return queue_.schedule(now_ + delay, std::forward<F>(fn), now_);
  }

  /// Schedules `fn` at absolute time `at` (at >= now()).
  template <typename F>
  EventHandle schedule_at(SimTime at, F&& fn) {
    if (at < now_) throw std::invalid_argument("Simulator: time in the past");
    return queue_.schedule(at, std::forward<F>(fn), now_);
  }

  /// From within an event callback only: re-arms the currently dispatching
  /// event `delay` from now, reusing its slot and closure (see
  /// EventQueue::reschedule_current).  Dispatch order is identical to
  /// calling schedule_in with the same closure at the same point; only the
  /// slab traffic differs.  At most once per callback.
  void rearm_in(Duration delay) {
    if (delay.is_negative()) {
      throw std::invalid_argument("Simulator: negative delay");
    }
    queue_.reschedule_current(now_ + delay);
  }

  /// Absolute-time variant of rearm_in (at >= now()).
  void rearm_at(SimTime at) {
    if (at < now_) throw std::invalid_argument("Simulator: time in the past");
    queue_.reschedule_current(at);
  }

  /// Runs events until the queue empties or the next event would fire after
  /// `end`; the clock is left at min(end, last event time).
  void run_until(SimTime end);

  // --- PDES domain stepping (see sim/pdes.h) ---------------------------
  // A Domain merges this queue with cross-domain handoffs, so it needs
  // one-event-at-a-time control plus a way to dispatch an arrival that
  // never lived in the queue.  These are the only entry points the
  // parallel kernel adds; the sequential run_until path is untouched.

  /// Time of the earliest pending event.  Requires pending_events() > 0.
  SimTime next_event_time() const { return queue_.next_time(); }
  /// now() when the earliest pending event was armed (EventQueue::
  /// next_armed).  Requires pending_events() > 0.
  SimTime next_event_armed() const { return queue_.next_armed(); }

  /// Dispatches exactly one pending event (the earliest).
  void dispatch_next() { dispatch_one(); }

  /// Advances the clock to `at` (>= now) and runs `fn` as one dispatched
  /// event, with the same audit/trace bookkeeping as dispatch_next().
  /// Used for cross-domain arrivals, which are merged from a staging heap
  /// instead of this queue so their ordering never depends on when the
  /// receiving domain happened to drain its channels.
  template <typename F>
  void dispatch_external(SimTime at, F&& fn) {
    if (at < now_) {
      throw std::invalid_argument("Simulator: external event in the past");
    }
    now_ = at;
    if constexpr (util::kAuditChecksEnabled) {
      util::audit_set_sim_context(now_.count_nanos(), dispatched_);
    }
    fn();
    ++dispatched_;
    if constexpr (util::kAuditChecksEnabled) {
      if ((dispatched_ & (kAuditStride - 1)) == 0) queue_.audit_verify();
    }
  }

  /// Advances an idle clock to `end` (the tail of run_until): a domain
  /// that finished a slice early still reports now() == end, exactly like
  /// the sequential kernel.
  void advance_to(SimTime end) {
    if (now_ < end) now_ = end;
  }

  std::uint64_t events_dispatched() const { return dispatched_; }

  /// Live (scheduled, not yet fired or cancelled) events.
  std::size_t pending_events() const { return queue_.size(); }

  /// Deep-walks the event queue's structural invariants (see
  /// EventQueue::audit_verify).  Audit builds run this automatically
  /// every kAuditStride dispatched events; tests call it directly.
  void audit_verify() const { queue_.audit_verify(); }

 private:
  /// How often the audit build re-walks the whole event structure.
  /// Power of two; frequent enough to localize a corruption to a small
  /// event window, rare enough that audit-build test times stay sane.
  static constexpr std::uint64_t kAuditStride = 1024;

  inline void dispatch_one() {
    queue_.dispatch_top([this](SimTime at) {
      now_ = at;
      if constexpr (util::kAuditChecksEnabled) {
        // Stamp failure reports with the event being dispatched; the
        // Release hot path never touches the thread-local.
        util::audit_set_sim_context(now_.count_nanos(), dispatched_);
      }
    });
    ++dispatched_;
    if constexpr (util::kAuditChecksEnabled) {
      if ((dispatched_ & (kAuditStride - 1)) == 0) queue_.audit_verify();
    }
  }

  EventQueue queue_;
  SimTime now_;
  std::uint64_t dispatched_ = 0;
};

}  // namespace bolot::sim

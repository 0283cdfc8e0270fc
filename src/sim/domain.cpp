#include "sim/domain.h"

#include <algorithm>
#include <utility>

namespace bolot::sim {

namespace {
/// a + b without wrapping past kNever (a is a time that may be kNever,
/// b is a non-negative lookahead).
std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  return a > Domain::kNever - b ? Domain::kNever : a + b;
}
}  // namespace

std::int64_t Domain::read_horizon() {
  // Read each source's safe time BEFORE draining its channel: any handoff
  // emitted before that publish is then either in the ring (drained into
  // the staging heap now) or in the producer's spill (which capped the
  // safe time we just read).  The reverse order could miss a handoff that
  // lands between the drain and the read, with a frontier that already
  // advertised it.
  std::int64_t horizon = kNever;
  for (Inbound& in : inbound_) {
    const std::int64_t s = in.source->safe_ns_.load(std::memory_order_acquire);
    Handoff h;
    while (in.channel->pop(h)) staged_.push(h);
    horizon = std::min(horizon, saturating_add(s, in.lookahead_ns));
  }
  return horizon;
}

std::int64_t Domain::next_event_ns() const {
  const std::int64_t t_local =
      sim_.pending_events() > 0 ? sim_.next_event_time().count_nanos() : kNever;
  const std::int64_t t_hand =
      staged_.empty() ? kNever : staged_.top().at.count_nanos();
  return std::min(t_local, t_hand);
}

bool Domain::publish(std::int64_t horizon) {
  // This domain's next action can be no earlier than min(next local event,
  // next staged handoff, horizon) — the horizon term covers handoffs
  // upstream has not emitted yet — capped by any outbound handoffs still
  // invisible in a spill.  Flushing first lets the cap lift as soon as
  // the consumer has made room.
  std::int64_t bound = std::min(next_event_ns(), horizon);
  bool spills_empty = true;
  for (SpscChannel* out : outbound_) {
    out->flush();
    bound = std::min(bound, out->spill_bound_ns());
    spills_empty = spills_empty && out->spill_empty();
  }
  if (bound > safe_ns_.load(std::memory_order_relaxed)) {
    safe_ns_.store(bound, std::memory_order_release);
    ++stats_.safe_publishes;
  }
  return spills_empty;
}

bool Domain::advance(SimTime end, std::size_t max_events,
                     std::size_t publish_every,
                     const std::vector<Link*>& links_by_uid) {
  const std::int64_t end_ns = end.count_nanos();
  const std::int64_t safe_at_claim = safe_ns_.load(std::memory_order_relaxed);
  std::int64_t horizon = read_horizon();

  // Execute everything provably safe: strictly before the horizon (an
  // upstream event AT the horizon could still emit a handoff arriving
  // exactly there) and at or before end (run_until is end-inclusive, like
  // the sequential kernel).  Handoff-vs-local timestamp ties dispatch the
  // handoff first.
  std::size_t executed = 0;
  while (executed < max_events) {
    const std::int64_t t = next_event_ns();
    if (t > end_ns && horizon > end_ns) break;  // nothing left this slice
    if (t >= horizon) {
      // Blocked at the horizon.  Publish first, so a neighbor waiting on
      // this domain can move, then read the horizon again; if upstream has
      // advanced meanwhile, keep the claim instead of giving it up.
      publish(horizon);
      const std::int64_t moved = read_horizon();
      if (moved <= horizon) break;
      horizon = moved;
      continue;
    }
    if (!staged_.empty() && staged_.top().at.count_nanos() == t) {
      Handoff h = staged_.top();
      staged_.pop();
      sim_.dispatch_external(h.at, [&] {
        links_by_uid[h.link]->deliver_remote(h.at, std::move(h.packet));
      });
      ++stats_.handoffs_in;
    } else {
      sim_.dispatch_next();
    }
    if (++executed % publish_every == 0) publish(horizon);
  }

  const bool spills_empty = publish(horizon);
  ++stats_.claims;
  stats_.events += executed;
  if (executed == 0) ++stats_.stalled_claims;

  // Nothing left at or before end, no inbound can produce anything at or
  // before end, and everything we emitted is visible: this domain is done
  // for the slice.  All three terms are monotone within the slice, so the
  // flag is stable once set.
  done_.store(next_event_ns() > end_ns && horizon > end_ns && spills_empty,
              std::memory_order_release);
  return executed > 0 ||
         safe_ns_.load(std::memory_order_relaxed) > safe_at_claim;
}

}  // namespace bolot::sim

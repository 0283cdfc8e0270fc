#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace bolot::sim {

/// Reaches the counters behind the heap key's two limits, which no test
/// can exhaust for real (2^40 schedules, 2^24 slots of 80 bytes).
class EventQueueTestPeer {
 public:
  static constexpr std::uint64_t kMaxSeq = EventQueue::kMaxSeq;
  static constexpr std::uint64_t kMaxSlots = EventQueue::kMaxSlots;

  static std::uint64_t pack(std::uint64_t seq, std::uint32_t slot) {
    return EventQueue::pack_key(seq, slot);
  }
  static std::uint64_t seq_of(std::uint64_t key) {
    return EventQueue::seq_of(EventQueue::HeapEntry{SimTime{}, key});
  }
  static std::uint32_t slot_of(std::uint64_t key) {
    return EventQueue::slot_of(EventQueue::HeapEntry{SimTime{}, key});
  }
  static void set_next_seq(EventQueue& queue, std::uint64_t seq) {
    queue.next_seq_ = seq;
  }
  static void set_slot_count(EventQueue& queue, std::uint32_t count) {
    queue.slot_count_ = count;
  }
  /// Entries in the lane: its lead (queued in the heap) and its ring.
  static std::size_t lane_size(const EventQueue& queue) {
    return queue.lane_size_ + (queue.lane_lead_ != EventQueue::kNone ? 1 : 0);
  }
  /// True when the lane's lead and an event outside the lane are both
  /// due at the heap root's time, so only their sequence numbers decide
  /// which dispatches first.
  static bool lane_ties_heap(const EventQueue& queue) {
    if (queue.lane_lead_ == EventQueue::kNone) return false;
    const SimTime at = queue.heap_[0].at;
    if (queue.heap_[queue.heap_pos_[queue.lane_lead_]].at != at) return false;
    if (queue.heap_pos_[queue.lane_lead_] != 0) return true;
    // The root is the lead; the runner-up is one of the root's children.
    for (std::size_t i = 1; i <= 4 && i < queue.heap_.size(); ++i) {
      if (queue.heap_[i].at == at) return true;
    }
    return false;
  }
};

namespace {

/// Dispatches the earliest pending event, ignoring its time.
void dispatch(EventQueue& queue) { queue.dispatch_top([](SimTime) {}); }

/// Dispatches until the queue is empty.
void drain(EventQueue& queue) {
  while (!queue.empty()) dispatch(queue);
}

TEST(EventQueueTest, EmptyOnConstruction) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_THROW(queue.next_time(), std::logic_error);
  EXPECT_THROW(dispatch(queue), std::logic_error);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(Duration::millis(30), [&] { order.push_back(3); });
  queue.schedule(Duration::millis(10), [&] { order.push_back(1); });
  queue.schedule(Duration::millis(20), [&] { order.push_back(2); });
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakInSchedulingOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  drain(queue);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  int fired = 0;
  EventHandle handle =
      queue.schedule(Duration::millis(1), [&fired] { ++fired; });
  queue.schedule(Duration::millis(2), [&fired] { fired += 10; });
  handle.cancel();
  drain(queue);
  EXPECT_EQ(fired, 10);
}

TEST(EventQueueTest, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue queue;
  int fired = 0;
  EventHandle handle =
      queue.schedule(Duration::millis(1), [&fired] { ++fired; });
  dispatch(queue);
  handle.cancel();  // no-op after the event fired
  handle.cancel();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, CancelledHeadDoesNotBlockEmptyCheck) {
  EventQueue queue;
  EventHandle a = queue.schedule(Duration::millis(1), [] {});
  a.cancel();
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue queue;
  EventHandle a = queue.schedule(Duration::millis(1), [] {});
  queue.schedule(Duration::millis(5), [] {});
  a.cancel();
  EXPECT_EQ(queue.next_time(), Duration::millis(5));
}

TEST(EventQueueTest, RejectsSchedulingIntoThePast) {
  EventQueue queue;
  queue.schedule(Duration::millis(10), [] {});
  dispatch(queue);
  EXPECT_THROW(queue.schedule(Duration::millis(5), [] {}), std::logic_error);
  // Scheduling exactly at the last popped time is allowed.
  EXPECT_NO_THROW(queue.schedule(Duration::millis(10), [] {}));
}

TEST(EventQueueTest, DefaultHandleIsInvalid) {
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  handle.cancel();  // must not crash
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(Duration::millis(1), [&] {
    ++fired;
    queue.schedule(Duration::millis(2), [&] { ++fired; });
  });
  drain(queue);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, FifoOrderSurvivesSlabReuse) {
  // Events 0..4 at t=5 fire and free their slots; events 5..9, scheduled
  // at the same timestamp into the *reused* slots, must still dispatch in
  // scheduling order (the sequence counter, not the slot id, breaks ties).
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  for (int i = 0; i < 5; ++i) dispatch(queue);
  for (int i = 5; i < 10; ++i) {
    queue.schedule(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  drain(queue);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, StaleHandleAfterSlotReuseIsNoop) {
  EventQueue queue;
  int first = 0, second = 0;
  EventHandle stale =
      queue.schedule(Duration::millis(1), [&first] { ++first; });
  stale.cancel();  // frees the slot
  // The next schedule reuses the freed slot; the stale handle's generation
  // no longer matches, so cancelling it again must not kill the new event.
  queue.schedule(Duration::millis(2), [&second] { ++second; });
  EXPECT_EQ(queue.slab_capacity(), 1u);  // proves the slot was reused
  stale.cancel();
  drain(queue);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(EventQueueTest, HandleOfFiredEventCannotCancelSlotSuccessor) {
  EventQueue queue;
  int first = 0, second = 0;
  EventHandle fired_handle =
      queue.schedule(Duration::millis(1), [&first] { ++first; });
  dispatch(queue);  // fires; slot returns to the free list
  queue.schedule(Duration::millis(2), [&second] { ++second; });
  fired_handle.cancel();  // stale: must not touch the successor
  drain(queue);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(EventQueueTest, CancelDuringDispatchOfSelfIsNoop) {
  EventQueue queue;
  int fired = 0;
  EventHandle self;
  self = queue.schedule(Duration::millis(1), [&] {
    ++fired;
    self.cancel();  // own event is already popped; must be a no-op
  });
  drain(queue);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, CallbackCanCancelPendingEventDuringDispatch) {
  EventQueue queue;
  int fired = 0;
  EventHandle victim =
      queue.schedule(Duration::millis(5), [&fired] { fired += 100; });
  queue.schedule(Duration::millis(1), [&] {
    ++fired;
    victim.cancel();
  });
  drain(queue);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelledTimersDoNotAccumulate) {
  // Regression: the TCP-RTO pattern (schedule a far-future timer, cancel,
  // reschedule) must not grow storage without bound.  Eager cancellation
  // keeps both the heap and the slab at O(pending events).
  EventQueue queue;
  EventHandle timer;
  for (int i = 0; i < 100000; ++i) {
    timer.cancel();
    timer = queue.schedule(Duration::seconds(30), [] {});
  }
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_LE(queue.slab_capacity(), 2u);
  timer.cancel();
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, SlabStaysAtHighWaterMarkOfLiveEvents) {
  EventQueue queue;
  // 64 live at peak; a million schedule/pop cycles afterwards must not
  // allocate new slots.
  for (int i = 0; i < 64; ++i) queue.schedule(Duration::millis(1), [] {});
  drain(queue);
  const std::size_t high_water = queue.slab_capacity();
  EXPECT_EQ(high_water, 64u);
  for (int i = 0; i < 1000000; ++i) {
    queue.schedule(Duration::millis(1), [] {});
    dispatch(queue);
  }
  EXPECT_EQ(queue.slab_capacity(), high_water);
}

TEST(EventQueueTest, EagerCancelPreservesDispatchOrderUnderChurn) {
  // Interleaved schedules and mid-heap cancellations: the survivors must
  // still come out in (time, scheduling order).  The pattern exercises
  // remove_heap_at on head, middle, and tail positions.
  EventQueue queue;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    // Times descend then ascend so cancellations hit varied heap spots.
    const double ms = (i * 37) % 100 + 1;
    handles.push_back(queue.schedule(
        Duration::millis(ms), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 3) handles[static_cast<std::size_t>(i)].cancel();
  SimTime prev = Duration::zero();
  while (!queue.empty()) {
    EXPECT_LE(prev, queue.next_time());
    prev = queue.next_time();
    dispatch(queue);
  }
  std::size_t expected = 0;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 != 0) ++expected;
    EXPECT_EQ(std::count(order.begin(), order.end(), i), i % 3 == 0 ? 0 : 1);
  }
  EXPECT_EQ(order.size(), expected);
}

TEST(EventQueueTest, DispatchTopRunsInTimeOrderAndReportsTime) {
  EventQueue queue;
  std::vector<int> order;
  std::vector<SimTime> times;
  queue.schedule(Duration::millis(2), [&order] { order.push_back(2); });
  queue.schedule(Duration::millis(1), [&order] { order.push_back(1); });
  while (!queue.empty()) {
    queue.dispatch_top([&times](SimTime at) { times.push_back(at); });
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(times,
            (std::vector<SimTime>{Duration::millis(1), Duration::millis(2)}));
}

TEST(EventQueueTest, RearmReusesSlotWithoutSlabGrowth) {
  // The self-re-arming pattern (link transmitter, periodic source) must
  // keep the closure in its slot: one slot total, never released.
  EventQueue queue;
  int fired = 0;
  queue.schedule(Duration::millis(1), [&] {
    if (++fired < 1000) {
      queue.reschedule_current(Duration::millis(fired + 1));
    }
  });
  drain(queue);
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(queue.slab_capacity(), 1u);
}

TEST(EventQueueTest, RearmOutsideDispatchThrows) {
  EventQueue queue;
  EXPECT_THROW(queue.reschedule_current(Duration::millis(1)),
               std::logic_error);
}

TEST(EventQueueTest, SecondRearmInOneDispatchThrows) {
  EventQueue queue;
  bool threw = false;
  queue.schedule(Duration::millis(1), [&] {
    queue.reschedule_current(Duration::millis(2));
    try {
      queue.reschedule_current(Duration::millis(3));
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  dispatch(queue);
  EXPECT_TRUE(threw);
  ASSERT_FALSE(queue.empty());
  EXPECT_EQ(queue.next_time(), Duration::millis(2));
  dispatch(queue);
}

TEST(EventQueueTest, NextArmedIsTheScheduleOrRearmClock) {
  // The arm time shares the slot's free-list link, so it must survive
  // queueing, be replaced by a rearm's dispatch time, and be rewritten
  // when a freed slot is handed out again.
  EventQueue queue;
  EXPECT_THROW(queue.next_armed(), std::logic_error);
  queue.schedule(Duration::millis(5), [] {}, Duration::millis(2));
  bool rearmed = false;
  queue.schedule(
      Duration::millis(1),
      [&queue, &rearmed] {
        if (!rearmed) queue.reschedule_current(Duration::millis(3));
        rearmed = true;
      },
      Duration::millis(0));
  EXPECT_EQ(queue.next_armed(), Duration::millis(0));
  dispatch(queue);  // 1 ms: re-arms itself for 3 ms
  EXPECT_EQ(queue.next_time(), Duration::millis(3));
  EXPECT_EQ(queue.next_armed(), Duration::millis(1));
  dispatch(queue);  // 3 ms: released to the free list
  EXPECT_EQ(queue.next_armed(), Duration::millis(2));
  queue.schedule(Duration::millis(4), [] {}, Duration::millis(3));
  EXPECT_EQ(queue.slab_capacity(), 2u);  // the freed slot was reused
  EXPECT_EQ(queue.next_armed(), Duration::millis(3));
  queue.audit_verify();
  drain(queue);
  queue.audit_verify();
}

TEST(EventQueueTest, HandleCancelsRearmedIncarnation) {
  // A rearm keeps the slot and generation, so the handle from the
  // original schedule() must still control the re-armed event.
  EventQueue queue;
  int fired = 0;
  EventHandle handle = queue.schedule(Duration::millis(1), [&] {
    ++fired;
    queue.reschedule_current(Duration::millis(2));
  });
  dispatch(queue);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(queue.empty());
  handle.cancel();
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, SelfCancelDuringDispatchTopLeavesQueueIntact) {
  // Regression: the dispatching slot is out of the heap but not yet
  // released, so its stale heap position must not let a self-cancel (the
  // TCP pattern: on_timeout -> arm_timer -> timer_.cancel()) evict some
  // other event's heap entry and double-release the slot.
  EventQueue queue;
  std::vector<int> order;
  EventHandle timer;
  queue.schedule(Duration::millis(5), [&order] { order.push_back(2); });
  timer = queue.schedule(Duration::millis(1), [&] {
    order.push_back(1);
    timer.cancel();  // must be a no-op on the event's own dispatch
    timer = queue.schedule(Duration::millis(9), [&order] {
      order.push_back(3);
    });
  });
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, RearmSequencesAtTheCallPoint) {
  // A rearm takes its tie-break sequence number where it is called, so at
  // equal timestamps it interleaves with fresh schedules exactly as a
  // schedule() at the same point would.
  EventQueue queue;
  std::vector<int> order;
  bool first = true;
  queue.schedule(Duration::millis(1), [&] {
    if (!first) {
      order.push_back(1);
      return;
    }
    first = false;
    queue.schedule(Duration::millis(2), [&order] { order.push_back(2); });
    queue.reschedule_current(Duration::millis(2));  // after 2's schedule
    queue.schedule(Duration::millis(2), [&order] { order.push_back(3); });
  });
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueueTest, DispatchTopRunsMoveOnlyCallback) {
  EventQueue queue;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  queue.schedule(Duration::millis(1),
                 [p = std::move(payload), &seen] { seen = *p; });
  dispatch(queue);
  EXPECT_EQ(seen, 42);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, DispatchOrderMatchesReferenceUnderTiesAndChurn) {
  // 10^5 seeded schedule / cancel / dispatch_top / in-callback rearm
  // operations against a sorted (at, seq) reference.  Times come from a
  // handful of offsets, so most dispatches break a tie; every dispatch
  // must be exactly the reference's front, not merely in time order.
  struct Token {
    std::uint64_t seq = 0;
    SimTime at;
    bool live = false;
    EventHandle handle;
  };
  EventQueue queue;
  Rng rng(0xE7E27);
  std::set<std::pair<SimTime, std::uint64_t>> reference;
  std::uint64_t next_seq = 0;
  std::vector<Token> tokens;
  SimTime now;
  std::size_t ops = 0;
  std::size_t dispatched = 0;
  std::size_t rearms = 0;
  std::size_t dispatching = SIZE_MAX;
  std::uint64_t expected_seq = 0;

  const auto draw_time = [&] {
    return now + Duration::micros(static_cast<double>(rng.uniform_int(4)));
  };
  const auto track = [&](std::size_t k, SimTime at) {
    tokens[k].seq = next_seq++;
    tokens[k].at = at;
    tokens[k].live = true;
    reference.emplace(at, tokens[k].seq);
  };
  const auto cancel_random = [&] {
    if (tokens.empty()) return;
    const std::size_t k = rng.uniform_int(tokens.size());
    tokens[k].handle.cancel();  // a fired or cancelled token is a no-op
    if (tokens[k].live && k != dispatching) {
      reference.erase({tokens[k].at, tokens[k].seq});
      tokens[k].live = false;
    }
  };
  std::function<void()> schedule_new;
  const auto on_fire = [&](std::size_t k) {
    EXPECT_EQ(tokens[k].seq, expected_seq) << "dispatch " << dispatched;
    tokens[k].live = false;
    dispatching = k;
    // In-callback churn: rearm, schedules and cancels in random order,
    // so the rearm's seq lands between fresh schedules' seqs.
    bool rearmed = false;
    for (int step = static_cast<int>(rng.uniform_int(4)); step > 0; --step) {
      ++ops;
      const std::uint64_t r = rng.uniform_int(3);
      if (r == 0 && !rearmed) {
        const SimTime at = draw_time();
        queue.reschedule_current(at);
        track(k, at);
        rearmed = true;
        ++rearms;
      } else if (r == 1) {
        schedule_new();
      } else {
        cancel_random();
      }
    }
    dispatching = SIZE_MAX;
  };
  schedule_new = [&] {
    const SimTime at = draw_time();
    const std::size_t k = tokens.size();
    tokens.emplace_back();
    track(k, at);
    tokens[k].handle = queue.schedule(at, [&on_fire, k] { on_fire(k); });
  };
  const auto dispatch = [&] {
    queue.dispatch_top([&](SimTime at) {
      ASSERT_FALSE(reference.empty());
      EXPECT_EQ(at, reference.begin()->first);
      expected_seq = reference.begin()->second;
      reference.erase(reference.begin());
      now = at;
    });
    ++dispatched;
  };

  while (ops < 100'000) {
    ++ops;
    const std::uint64_t r = rng.uniform_int(10);
    if (r < 4 || queue.empty()) {
      schedule_new();
    } else if (r < 5) {
      cancel_random();
    } else {
      dispatch();
    }
    ASSERT_EQ(queue.size(), reference.size());
    if (!queue.empty()) {
      ASSERT_EQ(queue.next_time(), reference.begin()->first);
    }
  }
  while (!queue.empty()) dispatch();
  EXPECT_TRUE(reference.empty());
  queue.audit_verify();
  EXPECT_GT(dispatched, 50'000u);
  EXPECT_GT(rearms, 20'000u);
}

TEST(EventQueueTest, LaneKeepsReferenceOrderUnderPeriodicChainsAndChurn) {
  // Hundreds of long-period self-re-arming chains (the tomography mesh's
  // probe streams) alongside short one-shot churn, against a sorted
  // (at, seq) reference.  Chains are cancelled through their handles
  // while queued in the lane, one-shots are aimed at a chain's exact next
  // time so lane and heap tie at one nanosecond, and far-future one-shots
  // sit in the heap throughout.  The whole structure is audited every
  // 1000 operations, and from inside a callback every 997 dispatches.
  using Peer = EventQueueTestPeer;
  struct Token {
    std::uint64_t seq = 0;
    SimTime at;
    bool live = false;
    Duration period;               // zero for a one-shot
    std::size_t chain = SIZE_MAX;  // index in `chains`, if a chain
    EventHandle handle;
  };
  EventQueue queue;
  Rng rng(0x1A7E5);
  std::set<std::pair<SimTime, std::uint64_t>> reference;
  std::uint64_t next_seq = 0;
  std::vector<Token> tokens;
  std::vector<std::size_t> chains;  // token index of each running chain
  SimTime now;
  std::size_t ops = 0;
  std::size_t next_audit = 1000;
  std::size_t dispatched = 0;
  std::size_t lane_cancels = 0;
  std::size_t ties = 0;
  std::size_t max_lane = 0;
  std::size_t dispatching = SIZE_MAX;
  std::uint64_t expected_seq = 0;
  bool draining = false;  // the final drain fires events without churn

  const auto track = [&](std::size_t k, SimTime at) {
    tokens[k].seq = next_seq++;
    tokens[k].at = at;
    tokens[k].live = true;
    reference.emplace(at, tokens[k].seq);
  };
  const auto cancel = [&](std::size_t k) {
    const std::size_t lane_before = Peer::lane_size(queue);
    tokens[k].handle.cancel();  // a fired or cancelled token is a no-op
    if (Peer::lane_size(queue) < lane_before) ++lane_cancels;
    if (tokens[k].live && k != dispatching) {
      reference.erase({tokens[k].at, tokens[k].seq});
      tokens[k].live = false;
    }
  };
  std::function<void(std::size_t)> on_fire;
  const auto schedule = [&](SimTime at, Duration period, std::size_t chain) {
    const std::size_t k = tokens.size();
    tokens.emplace_back();
    tokens[k].period = period;
    tokens[k].chain = chain;
    track(k, at);
    tokens[k].handle = queue.schedule(at, [&on_fire, k] { on_fire(k); });
    return k;
  };
  const auto start_chain = [&](std::size_t c) {
    // Most chains share the 10 ms period, so their re-arms append to the
    // lane; the 7 ms ones usually land before its tail and take the heap.
    const Duration period =
        Duration::micros(rng.uniform_int(5) == 0 ? 7000.0 : 10000.0);
    chains[c] = schedule(
        now + Duration::micros(static_cast<double>(rng.uniform_int(10000))),
        period, c);
  };
  const auto schedule_one_shot = [&] {
    const std::uint64_t r = rng.uniform_int(8);
    if (r == 0) {
      // Aimed at a chain's next firing: a lane-versus-heap tie.
      const Token& chain = tokens[chains[rng.uniform_int(chains.size())]];
      if (chain.live) schedule(chain.at, Duration::zero(), SIZE_MAX);
    } else if (r == 1 && rng.uniform_int(50) == 0) {
      // Far future: sits in the heap for the rest of the run.
      schedule(now + Duration::seconds(1), Duration::zero(), SIZE_MAX);
    } else {
      schedule(
          now + Duration::micros(static_cast<double>(rng.uniform_int(4))),
          Duration::zero(), SIZE_MAX);
    }
  };
  // A cancelled chain is replaced by a fresh one, so the population stays
  // at chains.size().  The dispatching chain is left alone: its cancel
  // would be a no-op.
  const auto replace_chain = [&](std::size_t c) {
    if (chains[c] == dispatching) return;
    cancel(chains[c]);
    start_chain(c);
  };
  const auto cancel_random = [&] {
    const std::size_t k = rng.uniform_int(tokens.size());
    const std::size_t c = tokens[k].chain;
    if (c != SIZE_MAX && chains[c] == k) {
      replace_chain(c);
    } else {
      cancel(k);
    }
  };
  const auto cancel_chain = [&] {
    replace_chain(rng.uniform_int(chains.size()));
  };
  on_fire = [&](std::size_t k) {
    EXPECT_EQ(tokens[k].seq, expected_seq) << "dispatch " << dispatched;
    tokens[k].live = false;
    if (draining) return;
    dispatching = k;
    if (dispatched % 997 == 0) queue.audit_verify();  // mid-dispatch state
    const Duration period = tokens[k].period;
    bool rearmed = false;
    if (period > Duration::zero() && rng.uniform_int(100) != 0) {
      const SimTime at = now + period;
      queue.reschedule_current(at);
      track(k, at);
      rearmed = true;
    }
    for (int step = static_cast<int>(rng.uniform_int(3)); step > 0; --step) {
      ++ops;
      const std::uint64_t r = rng.uniform_int(64);
      if (r < 16 && !rearmed && period == Duration::zero()) {
        const SimTime at =
            now + Duration::micros(static_cast<double>(rng.uniform_int(4)));
        queue.reschedule_current(at);
        track(k, at);
        rearmed = true;
      } else if (r < 32) {
        schedule_one_shot();
      } else if (r < 62) {
        cancel_random();
      } else {
        cancel_chain();
      }
    }
    dispatching = SIZE_MAX;
    if (period > Duration::zero() && !rearmed) {
      start_chain(tokens[k].chain);  // the chain stopped itself
    }
  };
  const auto dispatch = [&] {
    if (Peer::lane_ties_heap(queue)) ++ties;
    queue.dispatch_top([&](SimTime at) {
      ASSERT_FALSE(reference.empty());
      EXPECT_EQ(at, reference.begin()->first);
      expected_seq = reference.begin()->second;
      reference.erase(reference.begin());
      now = at;
    });
    ++dispatched;
    max_lane = std::max(max_lane, Peer::lane_size(queue));
  };

  chains.resize(300);
  for (std::size_t c = 0; c < chains.size(); ++c) start_chain(c);
  while (ops < 100'000) {
    ++ops;
    const std::uint64_t r = rng.uniform_int(100);
    if (r < 10) {
      schedule_one_shot();
    } else if (r < 15) {
      cancel_random();
    } else if (r < 16) {
      cancel_chain();
    } else {
      dispatch();
    }
    ASSERT_EQ(queue.size(), reference.size());
    if (!queue.empty()) {
      ASSERT_EQ(queue.next_time(), reference.begin()->first);
    }
    if (ops >= next_audit) {
      queue.audit_verify();
      next_audit += 1000;
    }
  }
  // The drain fires every pending event once, without re-arms.
  draining = true;
  while (!queue.empty()) dispatch();
  EXPECT_TRUE(reference.empty());
  queue.audit_verify();
  EXPECT_GT(dispatched, 40'000u);
  EXPECT_GT(max_lane, 200u);
  EXPECT_GT(lane_cancels, 1'000u);
  EXPECT_GT(ties, 500u);
}

TEST(EventQueueTest, FarFutureScheduleDoesNotBlockTheLane) {
  // An end-of-run stop is schedule()d far ahead and lives in the heap;
  // periodic chains started after it still re-arm into the lane.
  using Peer = EventQueueTestPeer;
  EventQueue queue;
  SimTime now;
  queue.schedule(Duration::seconds(1000), [] {});
  for (int i = 0; i < 8; ++i) {
    queue.schedule(Duration::millis(i + 1), [&queue, &now] {
      queue.reschedule_current(now + Duration::millis(10));
    });
  }
  const auto step = [&] {
    queue.dispatch_top([&now](SimTime at) { now = at; });
  };
  for (int i = 0; i < 8; ++i) step();
  EXPECT_EQ(Peer::lane_size(queue), 8u);
  for (int i = 0; i < 800; ++i) step();
  EXPECT_EQ(now, Duration::millis(1008));
  EXPECT_EQ(queue.size(), 9u);
  EXPECT_EQ(Peer::lane_size(queue), 8u);  // only the stop is outside it
  queue.audit_verify();
}

TEST(EventQueueTest, ThrowingCallbackIsDroppedAndLeavesQueueIntact) {
  // A callback that throws is dropped, re-arm or not: its slot is free
  // again, and the queue is out of dispatch mode, so a rearm outside any
  // callback is rejected as before.
  EventQueue queue;
  int fired = 0;
  queue.schedule(Duration::millis(1),
                 [] { throw std::runtime_error("callback failed"); });
  queue.schedule(Duration::millis(2), [&queue] {
    queue.reschedule_current(Duration::millis(5));
    throw std::runtime_error("callback failed after its rearm");
  });
  queue.schedule(Duration::millis(3), [&fired] { ++fired; });
  EXPECT_THROW(dispatch(queue), std::runtime_error);
  EXPECT_THROW(queue.reschedule_current(Duration::millis(4)),
               std::logic_error);
  EXPECT_THROW(dispatch(queue), std::runtime_error);
  EXPECT_EQ(queue.size(), 1u);  // the second event's rearm was discarded
  queue.audit_verify();
  queue.schedule(Duration::millis(3), [&fired] { ++fired; });
  EXPECT_EQ(queue.slab_capacity(), 3u);  // a thrown event's slot, reused
  drain(queue);
  EXPECT_EQ(fired, 2);
  queue.audit_verify();
}

TEST(EventQueueTest, HeapKeyPacksSeqAboveSlotAtBothLimits) {
  using Peer = EventQueueTestPeer;
  const std::uint64_t last_seq = Peer::kMaxSeq - 1;
  const auto last_slot = static_cast<std::uint32_t>(Peer::kMaxSlots - 1);
  EXPECT_EQ(Peer::kMaxSeq, std::uint64_t{1} << 40);
  EXPECT_EQ(Peer::kMaxSlots, std::uint64_t{1} << 24);
  EXPECT_EQ(Peer::pack(0, 0), 0u);
  EXPECT_EQ(Peer::pack(last_seq, last_slot), UINT64_MAX);
  for (const std::uint64_t seq : {std::uint64_t{0}, std::uint64_t{1}, last_seq}) {
    for (const std::uint32_t slot : {0u, 1u, last_slot}) {
      const std::uint64_t key = Peer::pack(seq, slot);
      EXPECT_EQ(Peer::seq_of(key), seq);
      EXPECT_EQ(Peer::slot_of(key), slot);
    }
  }
  // The slot bits never decide an order: the largest slot at one seq
  // still sorts before the smallest at the next.
  EXPECT_LT(Peer::pack(0, last_slot), Peer::pack(1, 0));
  EXPECT_LT(Peer::pack(last_seq - 1, last_slot), Peer::pack(last_seq, 0));
}

TEST(EventQueueTest, LastSequenceNumbersDispatchInOrderThenExhaust) {
  EventQueue queue;
  EventQueueTestPeer::set_next_seq(queue, EventQueueTestPeer::kMaxSeq - 3);
  std::vector<int> order;
  std::string rearm_error;
  queue.schedule(Duration::millis(1), [&] {
    order.push_back(0);
    try {
      queue.reschedule_current(Duration::millis(2));
    } catch (const std::length_error& e) {
      rearm_error = e.what();
    }
  });
  queue.schedule(Duration::millis(1), [&order] { order.push_back(1); });
  queue.schedule(Duration::millis(1), [&order] { order.push_back(2); });
  try {
    queue.schedule(Duration::millis(1), [] {});
    ADD_FAILURE() << "schedule past the last sequence number did not throw";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("2^40"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(queue.size(), 3u);  // the failed schedule left no trace
  queue.audit_verify();
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_NE(rearm_error.find("2^40"), std::string::npos) << rearm_error;
}

TEST(EventQueueTest, FullSlabIsANamedError) {
  EventQueue queue;
  EventQueueTestPeer::set_slot_count(
      queue, static_cast<std::uint32_t>(EventQueueTestPeer::kMaxSlots));
  try {
    queue.schedule(Duration::millis(1), [] {});
    ADD_FAILURE() << "schedule into a full slab did not throw";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("2^24"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(queue.empty());
  // The check runs before any slot is claimed, so the queue is intact.
  EventQueueTestPeer::set_slot_count(queue, 0);
  int fired = 0;
  queue.schedule(Duration::millis(1), [&fired] { ++fired; });
  dispatch(queue);
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace bolot::sim

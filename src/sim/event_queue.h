// Deterministic discrete-event queue with an allocation-free steady state.
//
// Pending events are ordered by an indexed 4-ary min-heap of 16-byte
// entries {time, key}.  The key packs the event's sequence number above
// its slab slot (seq << 24 | slot), so one entry carries both the full
// sort key and the slot it names: comparisons stay in the contiguous heap
// array and never chase pointers, and the four children a sift compares
// share one 64-byte cache line.  Callback closures live inline in a slab
// of reusable slots (InplaceFunction, no heap fallback); schedule()
// constructs the closure directly in its slot and dispatch_top() invokes
// it there (no move out), so after the slab and heap vectors reach their
// high-water marks a schedule -> dispatch cycle performs zero
// allocations.  Self-re-arming events (a link transmitter clocking
// back-to-back packets, a periodic source) go one step further:
// reschedule_current() re-queues the dispatching slot with no slab
// traffic and no closure construction at all.
//
// Periodic timers (a probe stream re-arming every delta) would otherwise
// fill the heap with entries every sift walks past.  A re-arm joins a
// sorted FIFO "lane" instead when the lane is empty or the re-arm's time
// is not earlier than the lane's newest entry; every other re-arm and
// every schedule() goes to the heap.
// A re-arm takes a sequence number above every pending one, so the lane
// stays sorted by (time, seq) on its own.  Only the lane's earliest entry,
// its lead, waits in the heap; the rest wait in a ring behind it, and
// when the lead dispatches the next one takes its place at the root.  The
// heap root is thus always the earliest pending event, and the dispatch
// order is exactly that of the heap-only queue.
//
// Events at equal timestamps are dispatched in scheduling order (FIFO via
// a monotonically increasing sequence number), so a simulation is a pure
// function of its inputs and seed.  Comparing packed keys is comparing
// sequence numbers: each seq is issued once, so the slot bits below it
// never decide an order.  The packing caps the queue at 2^24 concurrently
// pending events and 2^40 events scheduled over its lifetime; either
// limit is a std::length_error, never a silent wrap.
//
// Cancellation is eager: cancel() removes the entry immediately (an
// O(log n) sift via the slot's stored heap position, or an O(lane) erase
// for the rare cancel of an entry in the lane's ring) and recycles the
// slot through a free list, so cancelled-but-never-popped timers (the TCP
// retransmit pattern: schedule a far-future RTO, cancel it on every ack)
// cannot accumulate — live storage stays O(pending events).  Those
// one-shot timers are schedule()d, so they never enter or block the lane.
// An EventHandle identifies its event by {slot, generation}; the
// generation is bumped whenever a slot is released, so a stale handle
// (event fired or cancelled, slot possibly reused) is a safe no-op.
//
// The hot paths (schedule, dispatch_top, the sifts, the lane push) are
// defined in this header so they inline into the simulator's dispatch
// loop; see docs/MODEL_NOTES.md §9 for why eager cancellation, the packed
// key and the lane preserve determinism.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/audit.h"
#include "util/inplace_function.h"
#include "util/time.h"

namespace bolot::sim {

/// Inline capacity for event callbacks.  Every closure on the simulator's
/// hot path captures only `this` (the coalesced link datapath keeps
/// Packets in per-link rings, not in closures); 48 bytes leaves room for
/// test and example lambdas with a few captures while keeping a slab slot
/// at 80 bytes.  InplaceFunction static_asserts at the call site if a
/// larger closure is ever scheduled, so this can never silently regress
/// to heap allocation.
inline constexpr std::size_t kEventFnCapacity = 48;

using EventFn = util::InplaceFunction<void(), kEventFnCapacity>;

class EventQueue;

/// Token returned by schedule(); allows cancelling a pending event.
/// Copyable and trivially destructible: it is just {queue, slot,
/// generation}.  A handle must not be used after its EventQueue has been
/// destroyed (the simulator outlives every component that holds timers).
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet.  Safe to call repeatedly,
  /// after the event has fired, and after the slot has been reused by a
  /// later event (generation mismatch makes all of these no-ops).
  inline void cancel();

  bool valid() const { return queue_ != nullptr; }

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint64_t gen)
      : queue_(queue), slot_(slot), gen_(gen) {}

  EventQueue* queue_ = nullptr;  // not owned
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  // Handles and the simulator hold back-pointers; pin the queue in place.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` (anything invocable as void()) at absolute time `at`.
  /// `at` must not precede the time of the most recently popped event.
  /// The closure is constructed directly into its slot — no intermediate
  /// EventFn moves, no allocation once the slab has warmed up.  `armed`
  /// is the caller's clock when it schedules (see next_armed()):
  /// Simulator always passes now().  The zero default is for queue-level
  /// tests, which never merge cross-domain arrivals.
  template <typename F>
  EventHandle schedule(SimTime at, F&& fn, SimTime armed = {}) {
    if (at < last_popped_) throw_past();
    if (next_seq_ >= kMaxSeq) throw_seq_exhausted();
    std::uint32_t index;
    if (free_head_ != kNone) {
      index = free_head_;
      free_head_ = slot_at(index).next_free;
    } else {
      if ((slot_count_ & kChunkMask) == 0) grow_slab();
      index = slot_count_++;
      heap_pos_.push_back(kNone);
    }
    Slot& slot = slot_at(index);
    slot.fn = std::forward<F>(fn);
    slot.armed_ns = armed.count_nanos();
    SIM_AUDIT(static_cast<bool>(slot.fn),
              "EventQueue: slot %u holds no closure after construction",
              index);
    SIM_AUDIT(heap_pos_[index] == kNone,
              "EventQueue: slot %u handed out while still queued at heap "
              "position %u",
              index, heap_pos_[index]);
    heap_.push_back(HeapEntry{at, pack_key(next_seq_++, index)});
    sift_up(heap_.size() - 1);
    return EventHandle(this, index, slot.gen);
  }

  /// True when no live (non-cancelled) event remains.
  /// (The lane's lead is in the heap whenever the lane is not empty.)
  bool empty() const { return heap_.empty(); }

  /// Time of the earliest pending event.  Requires !empty().
  SimTime next_time() const {
    if (heap_.empty()) throw_empty("EventQueue: next_time on empty");
    return heap_[0].at;
  }

  /// Clock reading at which the earliest pending event was scheduled or
  /// last re-armed.  Equal-time events dispatch in that order (earlier
  /// arm, smaller seq), which is what lets the parallel kernel merge a
  /// cross-domain arrival into it.  Requires !empty().
  SimTime next_armed() const {
    if (heap_.empty()) throw_empty("EventQueue: next_armed on empty");
    return Duration::nanos(slot_at(slot_of(heap_[0])).armed_ns);
  }

  /// Dispatches the earliest pending event in place: the closure runs
  /// from its slot, with no move out and no slab traffic when the
  /// callback re-arms itself (see reschedule_current).  `on_advance(at)`
  /// runs before the closure so the caller can advance its clock.  If
  /// either throws, the event is dropped and the exception propagates
  /// with the queue intact.  Requires !empty().
  template <typename OnAdvance>
  void dispatch_top(OnAdvance&& on_advance) {
    if (heap_.empty()) throw_empty("EventQueue: dispatch on empty");
    const std::uint32_t index = slot_of(heap_[0]);
    const SimTime at = heap_[0].at;
    SIM_AUDIT(heap_pos_[index] == 0,
              "EventQueue: root slot %u disagrees with its heap position %u",
              index, heap_pos_[index]);
    SIM_AUDIT(at >= last_popped_,
              "EventQueue: time runs backwards (%.9f s after %.9f s)",
              at.seconds(), last_popped_.seconds());
    last_popped_ = at;
    if (index == lane_lead_ && lane_size_ != 0) {
      // The lane's next entry succeeds its lead at the root.
      heap_[0] = lane_pop();
      lane_lead_ = slot_of(heap_[0]);
      sift_down(0);
    } else {
      if (index == lane_lead_) lane_lead_ = kNone;
      // Root removal, specialised: the tail entry can only sink, so the
      // sift_up that remove_heap_at() needs for interior removals is dead
      // weight here.
      const HeapEntry moved = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) {
        heap_[0] = moved;
        heap_pos_[slot_of(moved)] = 0;
        sift_down(0);
      }
    }
    // The dispatching slot is out of the heap but not yet released; mark
    // it un-queued so a callback cancelling its own handle (the TCP
    // timeout pattern) is a no-op, exactly as when the slot was released
    // before invocation.  A rearm re-establishes the position on push.
    heap_pos_[index] = kNone;
    dispatching_ = index;
    rearm_seq_ = kNoRearm;
    try {
      on_advance(at);
      slot_at(index).fn();
    } catch (...) {
      // Drop the event (and any rearm it made) and leave dispatch mode,
      // so the queue stays consistent for the caller that catches.
      release_slot(index);
      dispatching_ = kNone;
      rearm_seq_ = kNoRearm;
      throw;
    }
    if (rearm_seq_ != kNoRearm) {
      // Re-queue the very closure that just ran, slab untouched.  The
      // sequence number was taken inside the callback, so the dispatch
      // order is exactly that of a fresh schedule() at the same point.
      // That seq is above every pending one, so a time at or past the
      // lane's newest entry keeps the lane sorted by (at, seq).  The
      // callback re-armed it at this dispatch's time.
      slot_at(index).armed_ns = at.count_nanos();
      const HeapEntry entry{rearm_at_, pack_key(rearm_seq_, index)};
      if (lane_lead_ != kNone && !(rearm_at_ < lane_back_at())) {
        lane_push(entry);
      } else {
        if (lane_lead_ == kNone) lane_lead_ = index;  // opens the lane
        heap_.push_back(entry);
        sift_up(heap_.size() - 1);
      }
    } else {
      release_slot(index);
    }
    dispatching_ = kNone;
  }

  /// From within a dispatching callback only: re-queues the *currently
  /// dispatching* event at `at`, reusing its slot and closure.  The
  /// steady-state fast path for self-re-arming events (link transmitter
  /// and propagation chains, periodic sources): a fresh schedule() of an
  /// identical closure costs slab release + allocation + closure
  /// construction; a rearm costs one ring append when `at` is not
  /// earlier than the lane's newest entry, one heap push otherwise.  At
  /// most one rearm per dispatch.  The event's handle stays valid and
  /// cancels the re-armed incarnation.
  void reschedule_current(SimTime at) {
    if (dispatching_ == kNone || rearm_seq_ != kNoRearm) throw_bad_rearm();
    if (at < last_popped_) throw_past();
    if (next_seq_ >= kMaxSeq) throw_seq_exhausted();
    rearm_at_ = at;
    rearm_seq_ = next_seq_++;
  }

  /// Number of live (scheduled, not yet fired or cancelled) events.
  std::size_t size() const { return heap_.size() + lane_size_; }

  /// Slots ever allocated.  Grows to the high-water mark of concurrent
  /// live events and then stays flat — eager cancellation means cancelled
  /// events never occupy storage (regression target: O(pending), not
  /// O(scheduled)).
  std::size_t slab_capacity() const { return slot_count_; }

  /// Deep structural walk, always compiled (the callers are audit-gated):
  /// verifies the 4-ary heap property and heap_pos_ back-pointers, the
  /// lane's lead and its ring's (at, seq) order and kInLane markers,
  /// walks the slab free list
  /// (no cycles, no slot both free and queued), and checks the heap +
  /// lane + free + dispatching slot accounting.  O(slots);
  /// the audit build calls it from the Simulator dispatch loop every
  /// kAuditStride events, tests and the fuzz harness call it directly.
  void audit_verify() const;

 private:
  friend class EventHandle;
  // Tests reach the two key limits through this peer by fast-forwarding
  // the counters behind them; 2^40 schedules or 2^24 live slots cannot be
  // run for real.
  friend class EventQueueTestPeer;

  static constexpr std::uint32_t kNone = UINT32_MAX;
  /// heap_pos_ value of a slot queued in the lane's ring; heap positions
  /// stay below kMaxSlots, so it can never name one.
  static constexpr std::uint32_t kInLane = UINT32_MAX - 1;

  /// Slots are allocated in fixed-size chunks so they never move: growing
  /// the slab allocates one new chunk instead of reallocating a vector and
  /// move-constructing every live closure through an indirect call.  The
  /// chunk size keeps each allocation well under glibc's mmap threshold,
  /// so chunks are recycled by the allocator arena across simulator
  /// lifetimes instead of being mapped and unmapped each run.
  static constexpr std::uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  /// The heap key: the sequence number in the high 40 bits, the slot in
  /// the low 24.  grow_slab() keeps slots below kMaxSlots and schedule()
  /// / reschedule_current() keep sequence numbers below kMaxSeq, so the
  /// fields never overlap and keys order exactly as sequence numbers do.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                           << (64 - kSlotBits);

  /// Heap entries carry the sort key so ordering never touches the slab.
  struct HeapEntry {
    SimTime at;
    std::uint64_t key;  // seq << kSlotBits | slot
  };

  struct Slot {
    std::uint64_t gen = 0;  // bumped on release; stale handles miss
    // A free slot links to the next free one; a queued or dispatching
    // one keeps the clock it was armed at (next_armed).  Each is read
    // only in its own state, so the two share the link's padded word.
    union {
      std::uint32_t next_free = kNone;
      std::int64_t armed_ns;
    };
    EventFn fn;
  };

  // Four children of a 4-ary node fill one 64-byte line; a closure field
  // that outgrows kEventFnCapacity shows up here, not in a profile.
  static_assert(sizeof(HeapEntry) == 16);
  static_assert(sizeof(Slot) == 80);

  static std::uint64_t pack_key(std::uint64_t seq, std::uint32_t slot) {
    return seq << kSlotBits | slot;
  }
  static std::uint32_t slot_of(const HeapEntry& entry) {
    return static_cast<std::uint32_t>(entry.key & (kMaxSlots - 1));
  }
  static std::uint64_t seq_of(const HeapEntry& entry) {
    return entry.key >> kSlotBits;
  }

  Slot& slot_at(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }
  const Slot& slot_at(std::uint32_t index) const {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }

  /// Heap order: earliest time first, scheduling order within a timestamp
  /// (the key's seq field decides; see kSlotBits).
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;
  }

  void sift_up(std::size_t pos) {
    const HeapEntry entry = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 4;
      if (!earlier(entry, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      heap_pos_[slot_of(heap_[pos])] = static_cast<std::uint32_t>(pos);
      pos = parent;
    }
    heap_[pos] = entry;
    heap_pos_[slot_of(entry)] = static_cast<std::uint32_t>(pos);
  }

  void sift_down(std::size_t pos) {
    const HeapEntry entry = heap_[pos];
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first = 4 * pos + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      for (std::size_t child = first + 1; child < last; ++child) {
        if (earlier(heap_[child], heap_[best])) best = child;
      }
      if (!earlier(heap_[best], entry)) break;
      heap_[pos] = heap_[best];
      heap_pos_[slot_of(heap_[pos])] = static_cast<std::uint32_t>(pos);
      pos = best;
    }
    heap_[pos] = entry;
    heap_pos_[slot_of(entry)] = static_cast<std::uint32_t>(pos);
  }

  /// Removes the heap entry at `pos`, restoring the heap property.
  void remove_heap_at(std::size_t pos) {
    const HeapEntry moved = heap_.back();
    heap_.pop_back();
    if (pos >= heap_.size()) return;  // removed the tail entry itself
    const std::uint32_t moved_slot = slot_of(moved);
    heap_[pos] = moved;
    heap_pos_[moved_slot] = static_cast<std::uint32_t>(pos);
    // The tail element may belong above or below the vacated position.
    sift_down(pos);
    sift_up(heap_pos_[moved_slot]);
  }

  std::uint32_t lane_mask() const {
    return static_cast<std::uint32_t>(lane_.size() - 1);
  }
  /// Time of the lane's newest entry.  Requires lane_lead_ != kNone.
  SimTime lane_back_at() const {
    return lane_size_ != 0
               ? lane_[(lane_head_ + lane_size_ - 1) & lane_mask()].at
               : heap_[heap_pos_[lane_lead_]].at;
  }

  /// Appends to the lane's ring; the caller has checked that the lane has
  /// a lead and stays sorted.
  void lane_push(const HeapEntry& entry) {
    if (lane_size_ == lane_.size()) grow_lane();
    lane_[(lane_head_ + lane_size_) & lane_mask()] = entry;
    ++lane_size_;
    heap_pos_[slot_of(entry)] = kInLane;
  }

  /// Removes the ring's front entry, the lead's successor, for the caller
  /// to queue in the heap.  Requires lane_size_ != 0.
  HeapEntry lane_pop() {
    const HeapEntry entry = lane_[lane_head_];
    lane_head_ = (lane_head_ + 1) & lane_mask();
    --lane_size_;
    return entry;
  }

  /// Returns `index` to the free list and invalidates outstanding handles.
  void release_slot(std::uint32_t index) {
    Slot& slot = slot_at(index);
    slot.fn.reset();
    ++slot.gen;  // outstanding handles to this slot become stale
    heap_pos_[index] = kNone;
    slot.next_free = free_head_;
    free_head_ = index;
  }

  /// Eagerly removes the event in `slot` if `gen` still matches.
  void cancel(std::uint32_t slot_index, std::uint64_t gen);

  /// Erases the ring entry naming `slot_index` (cold: periodic timers
  /// are rarely cancelled).
  void erase_from_lane(std::uint32_t slot_index);

  /// Doubles the lane ring, keeping entry order (cold path; the ring
  /// never shrinks, so a steady state never allocates).
  void grow_lane();

  /// Appends one chunk of pristine slots (cold path).  Throws
  /// std::length_error once the slab holds kMaxSlots slots.
  void grow_slab();

  [[noreturn]] static void throw_past();
  [[noreturn]] static void throw_empty(const char* what);
  [[noreturn]] static void throw_bad_rearm();
  [[noreturn]] static void throw_seq_exhausted();

  // Slot storage is split so the hot heap operations stay in compact,
  // trivially-copyable arrays: heap_pos_ (written on every sift step)
  // lives apart from the 80-byte Slot that holds the closure.
  std::vector<std::unique_ptr<Slot[]>> chunks_;  // slab; slots never move
  std::uint32_t slot_count_ = 0;                 // slots ever allocated
  std::vector<std::uint32_t> heap_pos_;  // per-slot; kNone if not queued,
                                         // kInLane if in the lane's ring
  std::vector<HeapEntry> heap_;          // 4-ary min-heap
  // The lane of periodic re-arms, sorted by (at, seq): its lead (earliest
  // entry, kNone when the lane is empty) is queued in the heap, the
  // entries behind it in a ring of capacity 0 or a power of two, front at
  // lane_head_.
  std::uint32_t lane_lead_ = kNone;
  std::vector<HeapEntry> lane_;
  std::uint32_t lane_head_ = 0;
  std::uint32_t lane_size_ = 0;
  std::uint32_t free_head_ = kNone;
  std::uint64_t next_seq_ = 0;
  SimTime last_popped_;

  // Scratch for audit_verify()'s slot-state walk; a member so repeated
  // audits stay allocation-free, and reserved with the slab in audit
  // builds (grow_slab) so that even the first audit does not allocate.
  mutable std::vector<std::uint8_t> audit_scratch_;

  // In-place dispatch state (dispatch_top / reschedule_current).
  static constexpr std::uint64_t kNoRearm = UINT64_MAX;
  std::uint32_t dispatching_ = kNone;  // slot mid-dispatch, else kNone
  std::uint64_t rearm_seq_ = kNoRearm;
  SimTime rearm_at_;
};

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel(slot_, gen_);
}

}  // namespace bolot::sim

#include "sim/event_queue.h"

#include <stdexcept>

namespace bolot::sim {

void EventQueue::cancel(std::uint32_t slot_index, std::uint64_t gen) {
  if (slot_index >= slot_count_) return;
  Slot& slot = slot_at(slot_index);
  const std::uint32_t pos = heap_pos_[slot_index];
  if (slot.gen != gen || pos == kNone) return;  // already fired/cancelled
  if (pos == kInLane) {
    erase_from_lane(slot_index);
  } else {
    SIM_AUDIT(pos < heap_.size() && slot_of(heap_[pos]) == slot_index,
              "EventQueue: cancel of slot %u found stale heap position %u "
              "(heap size %zu)",
              slot_index, pos, heap_.size());
    remove_heap_at(pos);
    if (slot_index == lane_lead_) {
      // The lane's next entry, if any, becomes its lead in the heap.
      lane_lead_ = kNone;
      if (lane_size_ != 0) {
        heap_.push_back(lane_pop());
        lane_lead_ = slot_of(heap_.back());
        sift_up(heap_.size() - 1);
      }
    }
  }
  release_slot(slot_index);
}

void EventQueue::erase_from_lane(std::uint32_t slot_index) {
  const std::uint32_t mask = lane_mask();
  std::uint32_t i = 0;
  while (i < lane_size_ &&
         slot_of(lane_[(lane_head_ + i) & mask]) != slot_index) {
    ++i;
  }
  SIM_AUDIT(i < lane_size_,
            "EventQueue: slot %u marked in-lane is not in the lane (%u "
            "entries)",
            slot_index, lane_size_);
  // Close the gap by shifting the newer entries one place towards the
  // front; the lane stays sorted.
  for (--lane_size_; i < lane_size_; ++i) {
    lane_[(lane_head_ + i) & mask] = lane_[(lane_head_ + i + 1) & mask];
  }
}

void EventQueue::grow_lane() {
  std::vector<HeapEntry> grown(lane_.empty() ? 16 : 2 * lane_.size());
  for (std::uint32_t i = 0; i < lane_size_; ++i) {
    grown[i] = lane_[(lane_head_ + i) & lane_mask()];
  }
  lane_.swap(grown);
  lane_head_ = 0;
}

void EventQueue::grow_slab() {
  if (slot_count_ >= kMaxSlots) {
    throw std::length_error(
        "EventQueue: slab full at 2^24 concurrently pending events (the "
        "heap key's slot field)");
  }
  chunks_.push_back(std::make_unique<Slot[]>(kChunkMask + 1));
  // Size audit_verify()'s scratch with the slab: the audit build's first
  // walk may fall inside a steady state that must not allocate.
  if constexpr (util::kAuditChecksEnabled) {
    audit_scratch_.reserve(chunks_.size() << kChunkShift);
  }
}

void EventQueue::audit_verify() const {
  // 0 = untracked, 1 = queued, 2 = free, 3 = dispatching.  The scratch
  // buffer is a reused member: the audit build runs this every
  // kAuditStride events, and a fresh vector here would break the
  // allocation-free steady state that event_alloc_test pins even in
  // audit builds.
  audit_scratch_.assign(slot_count_, 0);
  std::vector<std::uint8_t>& state = audit_scratch_;

  // Heap property + back-pointer discipline.  Every queued slot must hold
  // a closure (the dispatching slot is the one exception: its closure is
  // live but it has been unlinked from the heap for the callback).
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const HeapEntry& entry = heap_[i];
    const std::uint32_t slot = slot_of(entry);
    SIM_CHECK(slot < slot_count_,
              "EventQueue: heap entry %zu names slot %u outside the slab "
              "(%u slots)",
              i, slot, slot_count_);
    SIM_CHECK(state[slot] == 0,
              "EventQueue: slot %u appears twice in the heap", slot);
    state[slot] = 1;
    SIM_CHECK(heap_pos_[slot] == i,
              "EventQueue: slot %u at heap index %zu has back-pointer %u",
              slot, i, heap_pos_[slot]);
    SIM_CHECK(seq_of(entry) < next_seq_,
              "EventQueue: heap entry %zu carries unissued seq %llu "
              "(next %llu)",
              i, static_cast<unsigned long long>(seq_of(entry)),
              static_cast<unsigned long long>(next_seq_));
    SIM_CHECK(entry.at >= last_popped_,
              "EventQueue: heap entry %zu (slot %u) is scheduled at "
              "%.9f s, before the dispatch clock %.9f s",
              i, slot, entry.at.seconds(), last_popped_.seconds());
    if (i > 0) {
      const HeapEntry& parent = heap_[(i - 1) / 4];
      SIM_CHECK(!earlier(entry, parent),
                "EventQueue: heap property violated at index %zu (slot %u, "
                "t=%.9f s seq=%llu sorts before its parent)",
                i, slot, entry.at.seconds(),
                static_cast<unsigned long long>(seq_of(entry)));
    }
    SIM_CHECK(static_cast<bool>(slot_at(slot).fn) || slot == dispatching_,
              "EventQueue: queued slot %u holds no closure", slot);
  }

  // The lane: its lead is queued in the heap (and exists whenever the
  // ring is not empty); every ring entry is queued (kInLane marker,
  // closure present), not behind the dispatch clock, and sorted by
  // (at, seq) after the lead.
  SIM_CHECK(lane_.empty() ? lane_size_ == 0 && lane_head_ == 0
                          : (lane_.size() & lane_mask()) == 0 &&
                                lane_size_ <= lane_.size() &&
                                lane_head_ < lane_.size(),
            "EventQueue: lane ring broken — %u entries from %u in a ring "
            "of %zu",
            lane_size_, lane_head_, lane_.size());
  SIM_CHECK(lane_lead_ == kNone
                ? lane_size_ == 0
                : lane_lead_ < slot_count_ && state[lane_lead_] == 1,
            "EventQueue: lane lead %u is not queued in the heap (%u ring "
            "entries behind it)",
            lane_lead_, lane_size_);
  for (std::uint32_t i = 0; i < lane_size_; ++i) {
    const HeapEntry& entry = lane_[(lane_head_ + i) & lane_mask()];
    const std::uint32_t slot = slot_of(entry);
    SIM_CHECK(slot < slot_count_,
              "EventQueue: ring entry %u names slot %u outside the slab "
              "(%u slots)",
              i, slot, slot_count_);
    SIM_CHECK(state[slot] == 0,
              "EventQueue: slot %u is queued twice (ring entry %u)", slot, i);
    state[slot] = 1;
    SIM_CHECK(heap_pos_[slot] == kInLane,
              "EventQueue: slot %u at ring entry %u has heap position %u",
              slot, i, heap_pos_[slot]);
    SIM_CHECK(seq_of(entry) < next_seq_,
              "EventQueue: ring entry %u carries unissued seq %llu "
              "(next %llu)",
              i, static_cast<unsigned long long>(seq_of(entry)),
              static_cast<unsigned long long>(next_seq_));
    SIM_CHECK(entry.at >= last_popped_,
              "EventQueue: ring entry %u (slot %u) is scheduled at %.9f s, "
              "before the dispatch clock %.9f s",
              i, slot, entry.at.seconds(), last_popped_.seconds());
    const HeapEntry& prev = i > 0
                                ? lane_[(lane_head_ + i - 1) & lane_mask()]
                                : heap_[heap_pos_[lane_lead_]];
    SIM_CHECK(earlier(prev, entry),
              "EventQueue: lane out of order at ring entry %u (slot %u, "
              "t=%.9f s seq=%llu sorts before its predecessor)",
              i, slot, entry.at.seconds(),
              static_cast<unsigned long long>(seq_of(entry)));
    SIM_CHECK(static_cast<bool>(slot_at(slot).fn),
              "EventQueue: ring slot %u holds no closure", slot);
  }

  if (dispatching_ != kNone && state[dispatching_] == 0) {
    state[dispatching_] = 3;
    SIM_CHECK(heap_pos_[dispatching_] == kNone,
              "EventQueue: dispatching slot %u still has heap position %u",
              dispatching_, heap_pos_[dispatching_]);
  }

  // Free-list walk: in range, never queued, closure destroyed, no cycle
  // (a cycle would revisit a slot already marked free).
  std::size_t free_count = 0;
  for (std::uint32_t idx = free_head_; idx != kNone;
       idx = slot_at(idx).next_free) {
    SIM_CHECK(idx < slot_count_,
              "EventQueue: free list reaches slot %u outside the slab "
              "(%u slots)",
              idx, slot_count_);
    SIM_CHECK(state[idx] == 0,
              "EventQueue: slot %u is %s and on the free list", idx,
              state[idx] == 2 ? "already free (cycle)"
              : state[idx] == 1 ? "queued"
                                : "dispatching");
    state[idx] = 2;
    ++free_count;
    SIM_CHECK(heap_pos_[idx] == kNone,
              "EventQueue: free slot %u retains heap position %u", idx,
              heap_pos_[idx]);
    SIM_CHECK(!slot_at(idx).fn,
              "EventQueue: free slot %u still holds a closure", idx);
  }

  // Accounting: every slab slot is exactly one of queued (heap or ring)
  // / free / dispatching.  A leak (slot neither queued nor free) or a
  // double-release shows up here even when the individual operations
  // looked locally sane.
  SIM_CHECK(heap_.size() + lane_size_ + free_count +
                    (dispatching_ != kNone && state[dispatching_] == 3 ? 1u
                                                                      : 0u) ==
                slot_count_,
            "EventQueue: slot accounting broken — %zu in heap + %u in ring "
            "+ %zu free of %u allocated",
            heap_.size(), lane_size_, free_count, slot_count_);
  SIM_CHECK(heap_pos_.size() == slot_count_,
            "EventQueue: heap_pos table has %zu entries for %u slots",
            heap_pos_.size(), slot_count_);
}

void EventQueue::throw_past() {
  throw std::logic_error("EventQueue: scheduling into the past");
}

void EventQueue::throw_empty(const char* what) { throw std::logic_error(what); }

void EventQueue::throw_seq_exhausted() {
  throw std::length_error(
      "EventQueue: sequence space exhausted after 2^40 scheduled events "
      "(the heap key's seq field)");
}

void EventQueue::throw_bad_rearm() {
  throw std::logic_error(
      "EventQueue: reschedule_current outside a dispatching callback, or "
      "called twice in one dispatch");
}

}  // namespace bolot::sim

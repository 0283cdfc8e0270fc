// Contiguous FIFO ring buffer for the packet datapath.
//
// std::deque allocates and frees map blocks as elements flow through it, so
// a link queue in steady state pays the allocator once per few packets.  A
// RingBuffer allocates one power-of-two array (at construction via the
// capacity constructor, or lazily on first growth) and then recycles it
// forever: push/pop are masked index arithmetic, and a ring that has
// reached its high-water capacity never touches the heap again.  That is
// the property the counting-allocator datapath test pins.
//
// Requirements on T: default-constructible and move-assignable.  Elements
// are stored in a value-initialized array; push_back move-assigns into a
// slot and drop_front() leaves the slot as it is, so a dropped slot holds
// whatever the caller left in it (a moved-from T, say) until it is reused
// (fine for Packet and other value types).
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "util/audit.h"

namespace bolot::util {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;

  /// Allocates storage for at least `min_capacity` elements up front
  /// (rounded up to a power of two), so pushes within that bound never
  /// allocate.
  explicit RingBuffer(std::size_t min_capacity) { reserve(min_capacity); }

  // Storage is uniquely owned; moves transfer it, copies are disabled to
  // keep accidental element-wise duplication out of the hot path.
  RingBuffer(RingBuffer&&) noexcept = default;
  RingBuffer& operator=(RingBuffer&&) noexcept = default;
  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return data_ ? mask_ + 1 : 0; }

  /// Oldest element.  Requires !empty().
  T& front() {
    SIM_AUDIT(size_ > 0, "RingBuffer: front() on empty ring (cap=%zu)",
              capacity());
    return data_[head_];
  }
  const T& front() const {
    SIM_AUDIT(size_ > 0, "RingBuffer: front() on empty ring (cap=%zu)",
              capacity());
    return data_[head_];
  }

  /// i-th element from the front (0 == front()).  Requires i < size().
  T& operator[](std::size_t i) {
    SIM_AUDIT(i < size_, "RingBuffer: index %zu out of range (size=%zu)", i,
              size_);
    return data_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    SIM_AUDIT(i < size_, "RingBuffer: index %zu out of range (size=%zu)", i,
              size_);
    return data_[(head_ + i) & mask_];
  }

  /// Appends, growing (2x) only when full — never at steady state.
  void push_back(T&& value) {
    if (size_ == capacity()) reserve(size_ + 1);
    data_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  /// Removes the oldest element without moving it out.  Requires
  /// !empty().  The slot keeps its (moved-from or live) value until a
  /// later push wraps around to it, so `front(); drop_front();` lets a
  /// caller move the element exactly once — the reference stays usable
  /// until the next push into this ring.
  void drop_front() {
    SIM_AUDIT(size_ > 0, "RingBuffer: drop_front() on empty ring (cap=%zu)",
              capacity());
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Ensures capacity() >= min_capacity (rounded up to a power of two),
  /// compacting live elements to the front of the new array.  Throws
  /// std::length_error when no power of two in std::size_t reaches
  /// min_capacity.
  void reserve(std::size_t min_capacity) {
    if (min_capacity <= capacity()) return;
    constexpr std::size_t kLargestPowerOfTwo =
        std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
    if (min_capacity > kLargestPowerOfTwo) {
      throw std::length_error(
          "RingBuffer: capacity beyond the largest power of two");
    }
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    auto grown = std::make_unique<T[]>(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(data_[(head_ + i) & mask_]);
    }
    data_ = std::move(grown);
    mask_ = cap - 1;
    head_ = 0;
    audit_indices();
  }

  /// Deep index-discipline walk, always compiled (callers are tests and
  /// the audit-gated fuzz harness): the masked window must be coherent
  /// with the allocation.
  void audit_indices() const {
    SIM_CHECK((capacity() & mask_) == 0 && (data_ == nullptr) == (mask_ == 0 && capacity() == 0),
              "RingBuffer: capacity %zu not a power of two or mask %zu stale",
              capacity(), mask_);
    SIM_CHECK(size_ <= capacity(),
              "RingBuffer: size %zu exceeds capacity %zu", size_, capacity());
    SIM_CHECK(data_ == nullptr ? head_ == 0 : head_ <= mask_,
              "RingBuffer: head %zu outside storage (mask=%zu)", head_, mask_);
  }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace bolot::util

#include "util/ring_buffer.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace bolot::util {
namespace {

TEST(RingBufferTest, StartsEmpty) {
  RingBuffer<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 0u);
}

TEST(RingBufferTest, PushPopIsFifo) {
  RingBuffer<int> ring;
  for (int i = 0; i < 5; ++i) ring.push_back(int{i});
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.drop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingBufferTest, ReserveRoundsUpToPowerOfTwo) {
  RingBuffer<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  ring.reserve(3);  // never shrinks
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(RingBufferTest, WrapsAroundWithoutGrowing) {
  RingBuffer<int> ring(4);
  const std::size_t cap = ring.capacity();
  // Interleave pushes and pops far past the capacity: head wraps, the
  // storage never grows.
  int next = 0, expect = 0;
  ring.push_back(next++);
  ring.push_back(next++);
  for (int i = 0; i < 100; ++i) {
    ring.push_back(next++);
    EXPECT_EQ(ring.front(), expect++);
    ring.drop_front();
  }
  EXPECT_EQ(ring.capacity(), cap);
  EXPECT_EQ(ring.size(), 2u);
}

TEST(RingBufferTest, GrowthPreservesOrderAcrossTheSeam) {
  RingBuffer<int> ring(4);
  // Wrap the head so live elements straddle the array end, then force a
  // growth: reserve() must compact them to the front in FIFO order.
  for (int i = 0; i < 3; ++i) ring.push_back(int{i});
  ring.drop_front();
  ring.drop_front();
  for (int i = 3; i < 7; ++i) ring.push_back(int{i});  // fills, wraps
  ring.push_back(int{7});                              // grows to 8
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 2; i < 8; ++i) EXPECT_EQ(ring[i - 2], i);
}

TEST(RingBufferTest, IndexingIsFrontRelative) {
  RingBuffer<std::string> ring(4);
  ring.push_back("a");
  ring.push_back("b");
  ring.push_back("c");
  ring.drop_front();
  EXPECT_EQ(ring[0], "b");
  EXPECT_EQ(ring[1], "c");
}

TEST(RingBufferTest, DropFrontLeavesSlotReadableUntilNextPush) {
  RingBuffer<std::string> ring(4);
  ring.push_back("first");
  ring.push_back("second");
  std::string& front = ring.front();
  ring.drop_front();
  // The contract the link datapath relies on: the reference stays usable
  // until a push wraps to the slot.
  EXPECT_EQ(front, "first");
  EXPECT_EQ(ring.front(), "second");
  EXPECT_EQ(ring.size(), 1u);
}

TEST(RingBufferTest, HoldsMoveOnlyElements) {
  RingBuffer<std::unique_ptr<int>> ring(2);
  ring.push_back(std::make_unique<int>(1));
  ring.push_back(std::make_unique<int>(2));
  ring.push_back(std::make_unique<int>(3));  // grows
  for (int i = 1; i <= 3; ++i) {
    const std::unique_ptr<int> out = std::move(ring.front());
    ring.drop_front();
    EXPECT_EQ(*out, i);
  }
}

TEST(RingBufferTest, DrainedRingKeepsStorage) {
  RingBuffer<int> ring(8);
  for (int i = 0; i < 5; ++i) ring.push_back(int{i});
  while (!ring.empty()) ring.drop_front();
  EXPECT_EQ(ring.capacity(), 8u);
  ring.push_back(int{42});
  EXPECT_EQ(ring.front(), 42);
  EXPECT_EQ(ring.size(), 1u);
}

TEST(RingBufferTest, ReserveBeyondTheLargestPowerOfTwoThrows) {
  // Rounding such a request up would overflow std::size_t; it must be an
  // error, not an endless doubling loop, and leave the ring untouched.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  RingBuffer<int> ring(4);
  ring.push_back(int{7});
  EXPECT_THROW(ring.reserve(kMax), std::length_error);
  EXPECT_THROW(ring.reserve(kMax / 2 + 2), std::length_error);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.front(), 7);
}

}  // namespace
}  // namespace bolot::util

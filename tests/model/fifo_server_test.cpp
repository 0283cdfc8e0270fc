#include "model/fifo_server.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace bolot::model {
namespace {

Duration ms(double v) { return Duration::millis(v); }

TEST(FifoServerTest, PacketInServiceCountsTowardTheBuffer) {
  // K = 2: the packet in service plus one waiting fill it.
  FifoServer server(2);
  EXPECT_EQ(server.admit(ms(0), ms(10)), ms(10));
  EXPECT_EQ(server.admit(ms(1), ms(10)), ms(20));
  EXPECT_EQ(server.admit(ms(2), ms(10)), std::nullopt);
  // Once the first departs, one slot is free again.
  EXPECT_EQ(server.admit(ms(11), ms(10)), ms(30));
  EXPECT_EQ(server.admit(ms(12), ms(10)), std::nullopt);
}

TEST(FifoServerTest, DepartureAtTheArrivalInstantFreesItsSlot) {
  FifoServer server(1);
  EXPECT_EQ(server.admit(ms(0), ms(5)), ms(5));
  EXPECT_EQ(server.admit(ms(5) - Duration::nanos(1), ms(5)), std::nullopt);
  // The `<=` rule: a packet departing exactly at 5 ms has left.
  EXPECT_EQ(server.admit(ms(5), ms(5)), ms(10));
}

TEST(FifoServerTest, LindleyRecursionMatchesHandComputation) {
  // RunModelTest.LindleyRecursionMatchesHandComputation's first
  // intervals: delta = 20 ms, a 4.5 ms probe at n*delta and a 32 ms batch
  // packet at n*delta + 10 ms.  Probe n's wait is its departure minus
  // its arrival minus its own service.
  FifoServer server(16);
  const Duration probe = ms(4.5);
  const Duration batch = ms(32);
  Duration waits[4];
  for (int n = 0; n < 4; ++n) {
    const Duration arrival = ms(20.0 * n);
    const auto departure = server.admit(arrival, probe);
    ASSERT_TRUE(departure.has_value());
    waits[n] = *departure - arrival - probe;
    ASSERT_TRUE(server.admit(arrival + ms(10), batch).has_value());
  }
  EXPECT_EQ(waits[0], Duration::zero());
  EXPECT_EQ(waits[1], ms(22));
  EXPECT_EQ(waits[2], ms(38.5));
  EXPECT_EQ(waits[3], ms(55));
}

TEST(FifoServerTest, ZeroBufferThrows) {
  EXPECT_THROW(FifoServer(0), std::invalid_argument);
}

}  // namespace
}  // namespace bolot::model

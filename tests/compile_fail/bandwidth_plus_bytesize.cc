// Guard pinned: no operator+(Bandwidth, ByteSize) exists — units.h defines
// no arithmetic across dimensions, so adding a rate to a size is a
// compile error instead of a silently meaningless double.
#include "util/units.h"

using namespace bolot;

int main() {
  const Bandwidth rate = Bandwidth::kbps(128);
  const ByteSize packet = ByteSize::bytes(512);
  // Positive control: scaling a rate compiles.
  const Bandwidth doubled = rate * 2.0;
#ifdef COMPILE_FAIL
  auto nonsense = rate + packet;
  (void)nonsense;
#endif
  return doubled.bps() > 0.0 && packet.count() > 0 ? 0 : 1;
}

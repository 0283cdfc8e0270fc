// Guard pinned: ByteSize does not convert to BitSize (the widening is
// exact but still must be spelled out, as BitSize::of).
#include "util/units.h"

using namespace bolot;

namespace {
std::int64_t takes_bits(BitSize size) { return size.count(); }
}  // namespace

int main() {
  const ByteSize wire = ByteSize::bytes(72);
  const std::int64_t ok = takes_bits(BitSize::of(wire));
#ifdef COMPILE_FAIL
  const std::int64_t bad = takes_bits(wire);
  (void)bad;
#endif
  return ok == 576 ? 0 : 1;
}

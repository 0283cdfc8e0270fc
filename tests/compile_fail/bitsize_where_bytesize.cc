// Guard pinned: BitSize does not convert to ByteSize.  A function taking
// ByteSize must not accept a BitSize; the call site spells out the byte
// count it means.
#include "util/units.h"

using namespace bolot;

namespace {
std::int64_t takes_bytes(ByteSize size) { return size.count(); }
}  // namespace

int main() {
  const BitSize wire = BitSize::bits(576);
  // Positive control: a ByteSize built from the bit count compiles.
  const std::int64_t ok = takes_bytes(ByteSize::bytes(wire.count() / 8));
#ifdef COMPILE_FAIL
  const std::int64_t bad = takes_bytes(wire);
  (void)bad;
#endif
  return ok == 72 ? 0 : 1;
}

#include "sim/simulator.h"

#include "obs/trace.h"

namespace bolot::sim {

void Simulator::run_until(SimTime end) {
  TRACE_SCOPE("sim.run_until");
  while (!queue_.empty() && queue_.next_time() <= end) {
    // Advance the clock before dispatch so callbacks see their own time
    // (dispatch_one also maintains the audit context in audit builds).
    dispatch_one();
  }
  if (now_ < end) now_ = end;
}

}  // namespace bolot::sim

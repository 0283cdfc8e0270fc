// The small mesh the run_tomography tests share (tomography_test and the
// heap-growth binary, tomography_alloc_test).
#pragma once

#include "scenario/tomography.h"

namespace bolot::scenario {

/// Small AS-hierarchy mesh that runs in a few seconds: 8 hosts, 56
/// round-trip streams over ~30 directed probed links.
inline TomographySpec ci_spec() {
  TomographySpec spec;
  spec.topology.family = TopologySpec::Family::kAsHierarchy;
  spec.topology.core_count = 2;
  spec.topology.stubs_per_core = 2;
  spec.topology.hosts_per_stub = 2;
  spec.topology.peer_links = 0;
  spec.topology.seed = 7;
  spec.delta = Duration::millis(10);
  spec.duration = Duration::seconds(40);
  spec.drop_min = 0.02;
  spec.drop_max = 0.05;
  spec.seed = 1993;
  return spec;
}

}  // namespace bolot::scenario

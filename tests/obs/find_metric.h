// Snapshot lookup for tests.
#pragma once

#include <string_view>

#include "obs/metrics.h"

namespace bolot::obs {

/// The value of `snap`'s entry named `name`; nullptr when absent.
inline const double* find_metric(const MetricsSnapshot& snap,
                                 std::string_view name) {
  for (const SnapshotEntry& entry : snap.entries) {
    if (entry.name == name) return &entry.value;
  }
  return nullptr;
}

}  // namespace bolot::obs

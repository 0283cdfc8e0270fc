// Machine-readable sweep exports: JSON and CSV, plus the BENCH_* artifact
// convention used for trend tracking.
//
// Both writers are deterministic: field order follows insertion order,
// doubles use shortest round-trip formatting (std::to_chars), and nothing
// depends on locale.  With SweepIoOptions::deterministic() the output of a
// sweep is byte-identical across thread counts and machines (wall-clock
// and pool-size fields, the only schedule-dependent values, are omitted).
#pragma once

#include <string>

#include "runner/sweep.h"

namespace bolot::runner {

struct SweepIoOptions {
  /// Include the schedule-dependent fields: the thread-pool size and the
  /// per-run and whole-sweep wall-clock times.
  bool include_schedule = true;

  /// Options for byte-stable artifacts (e.g. the determinism tests):
  /// exclude every schedule-dependent field.
  static SweepIoOptions deterministic() { return {false}; }
};

/// Pretty-printed JSON document (2-space indent, trailing newline).
std::string sweep_to_json(const SweepResult& sweep,
                          const SweepIoOptions& options = {});

/// CSV with one row per run.  Columns: index,label,seed,failed, then the
/// union of param names and metric names in first-appearance order (blank
/// cell when a run lacks a column), then wall_seconds when timing is on.
std::string sweep_to_csv(const SweepResult& sweep,
                         const SweepIoOptions& options = {});

/// Writes `BENCH_<name>.json` and `BENCH_<name>.csv` into `directory`
/// (created if missing).  Returns the JSON path.  Throws std::runtime_error
/// on I/O failure.
std::string write_sweep_artifacts(const SweepResult& sweep,
                                  const std::string& directory,
                                  const SweepIoOptions& options = {});

}  // namespace bolot::runner

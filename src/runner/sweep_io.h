// Machine-readable sweep export: the BENCH_<name>.json artifact.
//
// The writer is deterministic: field order follows insertion order,
// doubles use shortest round-trip formatting (std::to_chars), and nothing
// depends on locale.  A sweep's result holds no schedule-dependent field,
// so its artifact is byte-identical across thread counts and machines.
#pragma once

#include <string>

#include "runner/sweep.h"

namespace bolot::runner {

/// Pretty-printed JSON document (2-space indent, trailing newline):
/// "sweep", "base_seed" (the seed every run used), then "runs", each with
/// "index", "label", "params", and "metrics" or, for a failed run,
/// "error".
std::string sweep_to_json(const SweepResult& sweep);

/// Writes `BENCH_<name>.json` into `directory` (created if missing).
/// Returns its path.  Throws std::runtime_error on I/O failure.
std::string write_sweep_artifacts(const SweepResult& sweep,
                                  const std::string& directory);

}  // namespace bolot::runner

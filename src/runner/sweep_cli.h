// Shared command-line options for sweep benches.
//
// Every bench migrated onto the sweep runner accepts the same flags:
//   --threads N      worker threads (0 = hardware concurrency; default 1
//                    so default output stays reproducible run-to-run on
//                    loaded machines, and identical to the pre-runner
//                    serial benches)
//   --seed S         the seed every run of the sweep uses (default 1993,
//                    the value the serial benches hard-coded)
//   --out DIR        write BENCH_<sweep>.json artifacts into DIR
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace bolot::runner {

/// Upper bound of --threads: a larger value is a usage error, not a pool
/// whose thread vector cannot be reserved.
inline constexpr std::size_t kMaxSweepThreads = 1024;

struct SweepCli {
  std::size_t threads = 1;
  std::uint64_t base_seed = 1993;
  std::string out_dir;  // empty = no artifacts
};

/// Usage text for the flags above (benches print it on parse failure).
std::string sweep_cli_usage(const std::string& program);

/// Parses the shared flags; throws std::invalid_argument on unknown flags,
/// missing values, or malformed numbers.
SweepCli parse_sweep_cli(int argc, char** argv);

}  // namespace bolot::runner

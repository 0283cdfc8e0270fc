// Shared command-line options for sweep benches.
//
// Every bench migrated onto the sweep runner accepts the same flags:
//   --threads N      worker threads (0 = hardware concurrency; default 1
//                    so default output stays reproducible run-to-run on
//                    loaded machines, and identical to the pre-runner
//                    serial benches)
//   --seed S         base seed for the sweep (default 1993, the value the
//                    serial benches hard-coded)
//   --out DIR        write BENCH_<sweep>.json / .csv artifacts into DIR
//   --replicates R   repeat each grid point R times with distinct derived
//                    seeds (benches that support it aggregate mean/stderr)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace bolot::runner {

/// Upper bounds of --threads and --replicates: a larger value is a usage
/// error, not a pool whose thread vector cannot be reserved or a spec
/// grid that grows until memory runs out.
inline constexpr std::size_t kMaxSweepThreads = 1024;
inline constexpr std::size_t kMaxReplicates = 10000;

struct SweepCli {
  std::size_t threads = 1;
  std::uint64_t base_seed = 1993;
  std::string out_dir;  // empty = no artifacts
  std::size_t replicates = 1;
};

/// Usage text for the flags above (benches print it on parse failure).
std::string sweep_cli_usage(const std::string& program);

/// Parses the shared flags; throws std::invalid_argument on unknown flags,
/// missing values, or malformed numbers.
SweepCli parse_sweep_cli(int argc, char** argv);

}  // namespace bolot::runner

#include "runner/sweep_cli.h"

#include <stdexcept>
#include <string_view>

#include "util/parse_number.h"

namespace bolot::runner {

std::string sweep_cli_usage(const std::string& program) {
  return "usage: " + program +
         " [--threads N] [--seed S] [--out DIR]\n"
         "  --threads N  worker threads, 0 = hardware concurrency "
         "(default 1)\n"
         "  --seed S     the seed every run uses (default 1993)\n"
         "  --out DIR    write BENCH_<sweep>.json artifacts to DIR\n";
}

SweepCli parse_sweep_cli(int argc, char** argv) {
  SweepCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(arg) + ": missing value");
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      cli.threads = static_cast<std::size_t>(
          parse_u64(arg, value(), kMaxSweepThreads));
    } else if (arg == "--seed") {
      cli.base_seed = parse_u64(arg, value());
    } else if (arg == "--out") {
      cli.out_dir = std::string(value());
    } else {
      throw std::invalid_argument("unknown flag '" + std::string(arg) + "'");
    }
  }
  return cli;
}

}  // namespace bolot::runner

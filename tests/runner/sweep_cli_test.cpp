// parse_sweep_cli: the flags every sweep bench shares, their defaults, and
// the named errors for bad values, including the bounds on --threads and
// --replicates.
#include "runner/sweep_cli.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

namespace bolot::runner {
namespace {

/// Parses `args` as the flags after a program name.
SweepCli parse(std::initializer_list<std::string> args) {
  std::vector<std::string> storage{"bench"};
  storage.insert(storage.end(), args);
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  return parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
}

/// The message of the std::invalid_argument `args` raise, or "" when they
/// parse.
std::string error_of(std::initializer_list<std::string> args) {
  try {
    parse(args);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SweepCliTest, DefaultsReproduceTheSerialBenches) {
  const SweepCli cli = parse({});
  EXPECT_EQ(cli.threads, 1u);
  EXPECT_EQ(cli.base_seed, 1993u);
  EXPECT_EQ(cli.out_dir, "");
  EXPECT_EQ(cli.replicates, 1u);
}

TEST(SweepCliTest, ParsesEveryFlag) {
  const SweepCli cli = parse({"--threads", "0", "--seed", "7", "--out",
                              "artifacts", "--replicates", "3"});
  EXPECT_EQ(cli.threads, 0u);
  EXPECT_EQ(cli.base_seed, 7u);
  EXPECT_EQ(cli.out_dir, "artifacts");
  EXPECT_EQ(cli.replicates, 3u);
}

TEST(SweepCliTest, ThreadsAndReplicatesAreBounded) {
  const std::string max_threads = std::to_string(kMaxSweepThreads);
  const std::string max_replicates = std::to_string(kMaxReplicates);
  EXPECT_EQ(parse({"--threads", max_threads}).threads, kMaxSweepThreads);
  EXPECT_EQ(parse({"--replicates", max_replicates}).replicates,
            kMaxReplicates);
  EXPECT_EQ(error_of({"--threads", "18446744073709551615"}),
            "--threads: '18446744073709551615' is out of range (at most " +
                max_threads + ")");
  EXPECT_EQ(error_of({"--threads", std::to_string(kMaxSweepThreads + 1)}),
            "--threads: '" + std::to_string(kMaxSweepThreads + 1) +
                "' is out of range (at most " + max_threads + ")");
  EXPECT_EQ(error_of({"--replicates", std::to_string(kMaxReplicates + 1)}),
            "--replicates: '" + std::to_string(kMaxReplicates + 1) +
                "' is out of range (at most " + max_replicates + ")");
  EXPECT_EQ(error_of({"--replicates", "0"}), "--replicates: must be >= 1");
}

TEST(SweepCliTest, NamesUnknownFlagsMissingValuesAndBadNumbers) {
  EXPECT_EQ(error_of({"--thread", "2"}), "unknown flag '--thread'");
  EXPECT_EQ(error_of({"--seed"}), "--seed: missing value");
  EXPECT_EQ(error_of({"--threads", "2x"}),
            "--threads: '2x' has trailing characters");
}

}  // namespace
}  // namespace bolot::runner

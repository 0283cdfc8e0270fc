#include "runner/sweep_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

namespace bolot::runner {
namespace {

SweepResult sample_sweep() {
  SweepResult sweep;
  sweep.name = "sample";
  sweep.base_seed = 1993;

  RunResult a;
  a.index = 0;
  a.label = "delta=8";
  a.params = {{"delta_ms", 8.0}};
  a.metrics = {{"ulp", 0.25}, {"clp", 0.5}};
  sweep.runs.push_back(a);

  RunResult b;
  b.index = 1;
  b.label = "weird \"label\", with comma";
  b.params = {{"delta_ms", 20.0}, {"extra", 1.0}};
  b.metrics = {{"ulp", 0.125}};
  sweep.runs.push_back(b);
  return sweep;
}

TEST(SweepIoTest, JsonCarriesFieldsAndEscapes) {
  const std::string json = sweep_to_json(sample_sweep());
  EXPECT_NE(json.find("\"sweep\": \"sample\""), std::string::npos);
  EXPECT_NE(json.find("\"base_seed\": 1993,\n  \"runs\": ["),
            std::string::npos);
  // Each run is index, label, params, metrics, in that order, and nothing
  // else.
  EXPECT_NE(json.find("\"index\": 0,\n      \"label\": \"delta=8\",\n"
                      "      \"params\": {\n        \"delta_ms\": 8\n      },\n"
                      "      \"metrics\": {\n        \"ulp\": 0.25,\n"
                      "        \"clp\": 0.5\n      }\n    }"),
            std::string::npos);
  // The quote inside the label must be escaped.
  EXPECT_NE(json.find("weird \\\"label\\\", with comma"), std::string::npos);
}

TEST(SweepIoTest, FailedRunSerializesError) {
  SweepResult sweep = sample_sweep();
  sweep.runs[1].failed = true;
  sweep.runs[1].error = "boom";
  const std::string json = sweep_to_json(sweep);
  EXPECT_NE(json.find("\"error\": \"boom\""), std::string::npos);
}

TEST(SweepIoTest, EmptySweepIsValid) {
  SweepResult sweep;
  sweep.name = "empty";
  const std::string json = sweep_to_json(sweep);
  EXPECT_EQ(json, "{\n  \"sweep\": \"empty\",\n  \"base_seed\": 0,\n"
                  "  \"runs\": []\n}\n");
}

TEST(SweepIoTest, NonFiniteMetricsSerializeAsJsonNull) {
  // Regression: std::to_chars happily renders inf/nan tokens, which are
  // not JSON — a loss sweep hitting clp == 1 (plg = 1/(1-clp) = inf) used
  // to corrupt its BENCH_*.json artifact.  Non-finite values must come
  // out as null, never as an inf/nan token.
  SweepResult sweep;
  sweep.name = "saturated";
  RunResult run;
  run.index = 0;
  run.label = "clp=1";
  run.params = {{"delta_ms", 8.0}};
  run.metrics = {{"ulp", 1.0},
                 {"clp", 1.0},
                 {"plg", std::numeric_limits<double>::infinity()},
                 {"neg", -std::numeric_limits<double>::infinity()},
                 {"runs_z", std::numeric_limits<double>::quiet_NaN()}};
  sweep.runs.push_back(run);

  const std::string json = sweep_to_json(sweep);
  EXPECT_NE(json.find("\"plg\": null"), std::string::npos);
  EXPECT_NE(json.find("\"neg\": null"), std::string::npos);
  EXPECT_NE(json.find("\"runs_z\": null"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  // Finite neighbors are untouched.
  EXPECT_NE(json.find("\"clp\": 1"), std::string::npos);
}

TEST(SweepIoTest, NonFiniteSweepRoundTripsThroughArtifacts) {
  // End-to-end shape of the original failure: write the artifact for
  // a sweep whose metrics include inf, and check the file on disk carries
  // the null (what CI's `python -m json.tool` pass validates).
  namespace fs = std::filesystem;
  SweepResult sweep;
  sweep.name = "allloss";
  RunResult run;
  run.metrics = {{"plg", std::numeric_limits<double>::infinity()}};
  sweep.runs.push_back(run);
  const fs::path dir = fs::temp_directory_path() / "bolot_sweep_nonfinite";
  fs::remove_all(dir);
  const std::string json_path = write_sweep_artifacts(sweep, dir);
  std::ifstream in(json_path);
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("\"plg\": null"), std::string::npos);
  EXPECT_EQ(body.str().find("inf"), std::string::npos);
  fs::remove_all(dir);
}

TEST(SweepIoTest, WriteArtifactsCreatesJsonAndCsv) {
  // The JSON artifact is written, and no CSV (or anything else) beside it.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "bolot_sweep_io_test" / "nested";
  fs::remove_all(dir.parent_path());
  const std::string json_path = write_sweep_artifacts(sample_sweep(), dir);
  EXPECT_EQ(json_path, (dir / "BENCH_sample.json").string());
  EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                          fs::directory_iterator()),
            1);
  std::ifstream in(json_path);
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_EQ(body.str(), sweep_to_json(sample_sweep()));
  fs::remove_all(dir.parent_path());
}

}  // namespace
}  // namespace bolot::runner

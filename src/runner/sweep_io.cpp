#include "runner/sweep_io.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "obs/metrics_io.h"

namespace bolot::runner {

namespace {

using obs::append_json_string;
using obs::format_number;

void append_metric_object(std::string& out,
                          const std::vector<Metric>& metrics,
                          const std::string& indent) {
  if (metrics.empty()) {
    out += "{}";
    return;
  }
  out += "{\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += indent + "  ";
    append_json_string(out, metrics[i].name);
    out += ": " + format_number(metrics[i].value);
    if (i + 1 < metrics.size()) out += ',';
    out += '\n';
  }
  out += indent + "}";
}

}  // namespace

std::string sweep_to_json(const SweepResult& sweep) {
  std::string out = "{\n  \"sweep\": ";
  append_json_string(out, sweep.name);
  out += ",\n  \"base_seed\": " + std::to_string(sweep.base_seed);
  out += ",\n  \"runs\": [";
  for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
    const RunResult& run = sweep.runs[i];
    out += "\n    {\n      \"index\": " + std::to_string(run.index);
    out += ",\n      \"label\": ";
    append_json_string(out, run.label);
    out += ",\n      \"params\": ";
    append_metric_object(out, run.params, "      ");
    if (run.failed) {
      out += ",\n      \"error\": ";
      append_json_string(out, run.error);
    } else {
      out += ",\n      \"metrics\": ";
      append_metric_object(out, run.metrics, "      ");
    }
    out += "\n    }";
    if (i + 1 < sweep.runs.size()) out += ',';
  }
  out += sweep.runs.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string write_sweep_artifacts(const SweepResult& sweep,
                                  const std::string& directory) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    throw std::runtime_error("write_sweep_artifacts: cannot create " +
                             directory + ": " + ec.message());
  }
  const fs::path path =
      fs::path(directory) / ("BENCH_" + sweep.name + ".json");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << sweep_to_json(sweep);
  if (!out) {
    throw std::runtime_error("write_sweep_artifacts: cannot write " +
                             path.string());
  }
  return path.string();
}

}  // namespace bolot::runner

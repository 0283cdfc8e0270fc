#include "runner/sweep_io.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

namespace bolot::runner {

namespace {

/// Shortest round-trip decimal rendering; locale-independent.  JSON has
/// no representation for inf/nan (std::to_chars would happily emit those
/// tokens and corrupt the artifact — e.g. plg when every probe after the
/// first is lost, clp == 1), so non-finite values serialize as null.
std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) throw std::runtime_error("format_number: to_chars");
  return std::string(buffer, ptr);
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

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

void append_csv_field(std::string& out, const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) {
    out += field;
    return;
  }
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

/// Union of names across runs, in first-appearance order.
std::vector<std::string> column_union(
    const SweepResult& sweep,
    const std::vector<Metric>& (*select)(const RunResult&)) {
  std::vector<std::string> names;
  for (const RunResult& run : sweep.runs) {
    for (const Metric& metric : select(run)) {
      bool seen = false;
      for (const std::string& name : names) {
        if (name == metric.name) {
          seen = true;
          break;
        }
      }
      if (!seen) names.push_back(metric.name);
    }
  }
  return names;
}

const std::vector<Metric>& select_params(const RunResult& run) {
  return run.params;
}
const std::vector<Metric>& select_metrics(const RunResult& run) {
  return run.metrics;
}

}  // namespace

std::string sweep_to_json(const SweepResult& sweep,
                          const SweepIoOptions& options) {
  std::string out = "{\n  \"sweep\": ";
  append_json_string(out, sweep.name);
  out += ",\n  \"base_seed\": " + std::to_string(sweep.base_seed);
  if (options.include_threads) {
    out += ",\n  \"threads\": " + std::to_string(sweep.threads);
  }
  if (options.include_timing) {
    out += ",\n  \"wall_seconds\": " + format_number(sweep.wall_seconds);
  }
  out += ",\n  \"runs\": [";
  for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
    const RunResult& run = sweep.runs[i];
    out += "\n    {\n      \"index\": " + std::to_string(run.index);
    out += ",\n      \"label\": ";
    append_json_string(out, run.label);
    out += ",\n      \"seed\": " + std::to_string(run.seed);
    out += ",\n      \"params\": ";
    append_metric_object(out, run.params, "      ");
    if (run.failed) {
      out += ",\n      \"error\": ";
      append_json_string(out, run.error);
    } else {
      out += ",\n      \"metrics\": ";
      append_metric_object(out, run.metrics, "      ");
    }
    if (options.include_timing) {
      out += ",\n      \"wall_seconds\": " + format_number(run.wall_seconds);
    }
    out += "\n    }";
    if (i + 1 < sweep.runs.size()) out += ',';
  }
  out += sweep.runs.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string sweep_to_csv(const SweepResult& sweep,
                         const SweepIoOptions& options) {
  const std::vector<std::string> param_names =
      column_union(sweep, select_params);
  const std::vector<std::string> metric_names =
      column_union(sweep, select_metrics);

  std::string out = "index,label,seed,failed";
  for (const std::string& name : param_names) {
    out += ',';
    append_csv_field(out, name);
  }
  for (const std::string& name : metric_names) {
    out += ',';
    append_csv_field(out, name);
  }
  if (options.include_timing) out += ",wall_seconds";
  out += '\n';

  for (const RunResult& run : sweep.runs) {
    out += std::to_string(run.index);
    out += ',';
    append_csv_field(out, run.label);
    out += ',' + std::to_string(run.seed);
    out += run.failed ? ",1" : ",0";
    for (const std::string& name : param_names) {
      out += ',';
      if (const double* value = find_metric(run.params, name)) {
        out += format_number(*value);
      }
    }
    for (const std::string& name : metric_names) {
      out += ',';
      if (const double* value = find_metric(run.metrics, name)) {
        out += format_number(*value);
      }
    }
    if (options.include_timing) out += ',' + format_number(run.wall_seconds);
    out += '\n';
  }
  return out;
}

std::string write_sweep_artifacts(const SweepResult& sweep,
                                  const std::string& directory,
                                  const SweepIoOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    throw std::runtime_error("write_sweep_artifacts: cannot create " +
                             directory + ": " + ec.message());
  }
  const fs::path base = fs::path(directory) / ("BENCH_" + sweep.name);
  const auto write_file = [](const fs::path& path, const std::string& body) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body;
    if (!out) {
      throw std::runtime_error("write_sweep_artifacts: cannot write " +
                               path.string());
    }
  };
  const fs::path json_path = base.string() + ".json";
  write_file(json_path, sweep_to_json(sweep, options));
  write_file(base.string() + ".csv", sweep_to_csv(sweep, options));
  return json_path.string();
}

}  // namespace bolot::runner

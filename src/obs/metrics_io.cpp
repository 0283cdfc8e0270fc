#include "obs/metrics_io.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace bolot::obs {

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
  for (const char c : s) {
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

namespace {

std::string format_integer(std::int64_t value) {
  char buffer[32];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) throw std::runtime_error("format_integer: to_chars");
  return std::string(buffer, ptr);
}

}  // namespace

std::string metrics_to_json(const MetricsSnapshot& snapshot,
                            const std::vector<TimeSeries>& series) {
  std::string out;
  out += "{\n";
  out += "  \"at_ns\": " + format_integer(snapshot.at.count_nanos());

  out += ",\n  \"metrics\": [";
  for (std::size_t i = 0; i < snapshot.entries.size(); ++i) {
    const SnapshotEntry& entry = snapshot.entries[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_json_string(out, entry.name);
    out += ", \"kind\": \"";
    out += entry.kind == MetricKind::kCounter ? "counter" : "gauge";
    out += "\", \"value\": " + format_number(entry.value) + "}";
  }
  out += snapshot.entries.empty() ? "]" : "\n  ]";

  out += ",\n  \"series\": [";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const TimeSeries& s = series[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_json_string(out, s.name());
    out += ", \"start_ns\": " + format_integer(s.start().count_nanos());
    out += ", \"stride_ns\": " + format_integer(s.stride().count_nanos());
    out += ", \"values\": [";
    for (std::size_t v = 0; v < s.values().size(); ++v) {
      if (v != 0) out += ", ";
      out += format_number(s.values()[v]);
    }
    out += "]}";
  }
  out += series.empty() ? "]" : "\n  ]";

  out += "\n}\n";
  return out;
}

void write_metrics_json(const std::string& path,
                        const MetricsSnapshot& snapshot,
                        const std::vector<TimeSeries>& series) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("write_metrics_json: cannot open " + path);
  out << metrics_to_json(snapshot, series);
  if (!out) throw std::runtime_error("write_metrics_json: write failed: " +
                                     path);
}

}  // namespace bolot::obs

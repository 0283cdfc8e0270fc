#include "analysis/trace_io.h"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace bolot::analysis {

namespace {

constexpr std::string_view kMagic = "# bolot-trace v1";

std::int64_t parse_int(std::string_view text, const char* what) {
  std::int64_t value = 0;
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::runtime_error(std::string("trace csv: bad ") + what + " '" +
                             std::string(text) + "'");
  }
  return value;
}

/// Extracts "<key>=<int>" from a header line.
std::int64_t header_field(const std::string& line, std::string_view key) {
  const auto pos = line.find(key);
  if (pos == std::string::npos || pos + key.size() >= line.size() ||
      line[pos + key.size()] != '=') {
    throw std::runtime_error("trace csv: missing header field " +
                             std::string(key));
  }
  const auto start = pos + key.size() + 1;  // skip '='
  auto end = line.find(' ', start);
  if (end == std::string::npos) end = line.size();
  return parse_int(std::string_view(line).substr(start, end - start),
                   key.data());
}

std::vector<std::string_view> split(std::string_view line, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == sep) {
      out.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

}  // namespace

void write_trace_csv(std::ostream& os, const ProbeTrace& trace) {
  os << kMagic << '\n'
     << "# delta_ns=" << trace.delta.count_nanos()
     << " probe_wire_bytes=" << trace.probe_wire_bytes
     << " clock_tick_ns=" << trace.clock_tick.count_nanos() << '\n'
     << "seq,send_ns,received,rtt_ns,echo_ns\n";
  for (const auto& record : trace.records) {
    os << record.seq << ',' << record.send_time.count_nanos() << ','
       << (record.received ? 1 : 0) << ',' << record.rtt.count_nanos() << ','
       << record.echo_time.count_nanos() << '\n';
  }
  if (!os) throw std::runtime_error("trace csv: write failed");
}

void save_trace_csv(const std::string& path, const ProbeTrace& trace) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("trace csv: cannot open " + path);
  write_trace_csv(file, trace);
}

ProbeTrace read_trace_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kMagic) {
    throw std::runtime_error("trace csv: bad magic line");
  }
  if (!std::getline(is, line) || line.rfind("# ", 0) != 0) {
    throw std::runtime_error("trace csv: missing metadata line");
  }
  ProbeTrace trace;
  trace.delta = Duration::nanos(header_field(line, "delta_ns"));
  trace.probe_wire_bytes = header_field(line, "probe_wire_bytes");
  trace.clock_tick = Duration::nanos(header_field(line, "clock_tick_ns"));
  // The bounds UdpEchoSource enforces on the traces it produces.
  if (trace.delta <= Duration::zero()) {
    throw std::runtime_error("trace csv: delta_ns must be positive, got " +
                             std::to_string(trace.delta.count_nanos()));
  }
  if (trace.probe_wire_bytes <= 0) {
    throw std::runtime_error(
        "trace csv: probe_wire_bytes must be positive, got " +
        std::to_string(trace.probe_wire_bytes));
  }
  if (trace.clock_tick.is_negative()) {
    throw std::runtime_error("trace csv: clock_tick_ns must not be negative, "
                             "got " +
                             std::to_string(trace.clock_tick.count_nanos()));
  }

  if (!std::getline(is, line) ||
      line != "seq,send_ns,received,rtt_ns,echo_ns") {
    throw std::runtime_error("trace csv: missing column header");
  }

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = split(line, ',');
    if (cells.size() != 5) {
      throw std::runtime_error("trace csv: expected 5 fields, got " +
                               std::to_string(cells.size()));
    }
    ProbeRecord record;
    record.seq = static_cast<std::uint64_t>(parse_int(cells[0], "seq"));
    record.send_time = Duration::nanos(parse_int(cells[1], "send_ns"));
    const std::int64_t received = parse_int(cells[2], "received");
    const std::int64_t rtt_ns = parse_int(cells[3], "rtt_ns");
    record.echo_time = Duration::nanos(parse_int(cells[4], "echo_ns"));
    // Writers set an rtt only on receipt (lost rows carry 0), so anything
    // else is a corrupt row, not a measurement.
    const auto reject = [&record](const std::string& what) {
      throw std::runtime_error("trace csv: " + what + " at seq " +
                               std::to_string(record.seq));
    };
    if (received != 0 && received != 1) {
      reject("received must be 0 or 1, got " + std::to_string(received));
    }
    if (rtt_ns < 0) reject("negative rtt_ns " + std::to_string(rtt_ns));
    if (received == 0 && rtt_ns != 0) {
      reject("lost probe carries rtt_ns " + std::to_string(rtt_ns));
    }
    record.received = received == 1;
    record.rtt = Duration::nanos(rtt_ns);
    if (record.seq != trace.records.size()) {
      throw std::runtime_error("trace csv: sequence numbers must be dense");
    }
    trace.records.push_back(record);
  }
  return trace;
}

ProbeTrace load_trace_csv(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("trace csv: cannot open " + path);
  return read_trace_csv(file);
}

}  // namespace bolot::analysis

// ProbeTrace persistence: save measurement runs to CSV and load them back,
// so experiments can be archived and re-analyzed (the original NetDyn
// workflow: collect on one machine, analyze offline).
//
// Format: a comment header carrying the trace metadata, then one row per
// probe:
//
//   # bolot-trace v1
//   # delta_ns=<int> probe_wire_bytes=<int> clock_tick_ns=<int>
//   seq,send_ns,received,rtt_ns,echo_ns
//   0,0,1,141234000,70125000
//   ...
#pragma once

#include <iosfwd>
#include <string>

#include "analysis/probe_trace.h"

namespace bolot::analysis {

/// Writes the trace; throws std::runtime_error on stream failure.
void write_trace_csv(std::ostream& os, const ProbeTrace& trace);
void save_trace_csv(const std::string& path, const ProbeTrace& trace);

/// Parses a trace written by write_trace_csv.  Throws std::runtime_error
/// on malformed input (wrong magic, bad field counts, non-numeric cells,
/// out-of-order sequence numbers) and on values no probe source produces:
/// delta_ns <= 0, probe_wire_bytes <= 0, clock_tick_ns < 0, received
/// other than 0 or 1, a negative rtt, or a lost probe carrying an rtt.
ProbeTrace read_trace_csv(std::istream& is);
ProbeTrace load_trace_csv(const std::string& path);

}  // namespace bolot::analysis

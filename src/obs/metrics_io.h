// JSON export for metrics snapshots and sampled time series (the
// --metrics-out flag of the benches), and the two JSON primitives every
// writer in the repository shares (runner/sweep_io included).
// Deterministic: field order is registration order, doubles use shortest
// round-trip std::to_chars formatting, nothing reads locale.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace bolot::obs {

/// Shortest round-trip decimal rendering of `value`; locale-independent.
/// JSON has no inf/nan tokens (a gauge or a sweep metric such as plg can
/// legitimately evaluate to one), so non-finite values render as null.
std::string format_number(double value);

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` are escaped,
/// and so is every byte below 0x20 (\n, \r and \t by name, the rest as
/// \u00XX), which JSON does not allow raw.
void append_json_string(std::string& out, const std::string& s);

/// Pretty-printed JSON document (2-space indent, trailing newline) with
/// "at_ns", "metrics" (registration order) and "series".
std::string metrics_to_json(const MetricsSnapshot& snapshot,
                            const std::vector<TimeSeries>& series = {});

/// Writes metrics_to_json to `path`; throws std::runtime_error on I/O
/// failure.
void write_metrics_json(const std::string& path,
                        const MetricsSnapshot& snapshot,
                        const std::vector<TimeSeries>& series = {});

}  // namespace bolot::obs

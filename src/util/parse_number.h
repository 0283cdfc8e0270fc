// Checked number parsing for command-line values.
//
// Every program that reads a number from argv goes through these two
// functions, so "--delta-ms 5x", "--buffer -1" or a port of 70000 is a
// named error instead of a silently truncated, wrapped or zeroed value.
// The whole text must be the number: no leading whitespace, no trailing
// characters, no sign on an unsigned value.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace bolot {

/// Parses `text` as a decimal unsigned integer in [0, max].  Throws
/// std::invalid_argument, with a message that starts with `what` (the
/// flag or argument name), when the text is empty, carries a sign or
/// trailing characters, or names a value above `max`.
std::uint64_t parse_u64(std::string_view what, std::string_view text,
                        std::uint64_t max =
                            std::numeric_limits<std::uint64_t>::max());

/// Parses `text` as a finite decimal floating-point number.  Throws
/// std::invalid_argument, with a message that starts with `what`, when
/// the text is empty, carries trailing characters, is out of double's
/// range, or names inf/nan.
double parse_f64(std::string_view what, std::string_view text);

}  // namespace bolot

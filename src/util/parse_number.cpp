#include "util/parse_number.h"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <system_error>

namespace bolot {

namespace {

[[noreturn]] void fail(std::string_view what, std::string_view text,
                       std::string_view problem) {
  throw std::invalid_argument(std::string(what) + ": '" + std::string(text) +
                              "' " + std::string(problem));
}

}  // namespace

std::uint64_t parse_u64(std::string_view what, std::string_view text,
                        std::uint64_t max) {
  if (!text.empty() && (text.front() == '-' || text.front() == '+')) {
    fail(what, text, "has a sign; expected an unsigned integer");
  }
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::invalid_argument) {
    fail(what, text, "is not an unsigned integer");
  }
  if (ptr != end && ec == std::errc()) {
    fail(what, text, "has trailing characters");
  }
  if (ec == std::errc::result_out_of_range || value > max) {
    fail(what, text, "is out of range (at most " + std::to_string(max) + ")");
  }
  return value;
}

double parse_f64(std::string_view what, std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::invalid_argument) fail(what, text, "is not a number");
  if (ec == std::errc::result_out_of_range) fail(what, text, "is out of range");
  if (ptr != end) fail(what, text, "has trailing characters");
  if (!std::isfinite(value)) fail(what, text, "is not finite");
  return value;
}

}  // namespace bolot

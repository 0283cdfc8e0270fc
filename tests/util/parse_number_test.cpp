#include "util/parse_number.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace bolot {
namespace {

// The message of the std::invalid_argument thrown by `parse`, or "" when
// it returns normally.
template <typename Parse>
std::string error_of(Parse parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ParseNumberTest, U64AcceptsWholeDecimalNumbersUpToMax) {
  EXPECT_EQ(parse_u64("--seed", "0"), 0u);
  EXPECT_EQ(parse_u64("--seed", "1993"), 1993u);
  EXPECT_EQ(parse_u64("--seed", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_u64("port", "65535", 65535), 65535u);
}

TEST(ParseNumberTest, U64NamesEachKindOfBadValue) {
  EXPECT_EQ(error_of([] { parse_u64("port", "70000", 65535); }),
            "port: '70000' is out of range (at most 65535)");
  EXPECT_EQ(error_of([] { parse_u64("--seed", "18446744073709551616"); }),
            "--seed: '18446744073709551616' is out of range (at most "
            "18446744073709551615)");
  EXPECT_EQ(error_of([] { parse_u64("--buffer", "-1"); }),
            "--buffer: '-1' has a sign; expected an unsigned integer");
  EXPECT_EQ(error_of([] { parse_u64("--buffer", "+1"); }),
            "--buffer: '+1' has a sign; expected an unsigned integer");
  EXPECT_EQ(error_of([] { parse_u64("count", "12abc"); }),
            "count: '12abc' has trailing characters");
  EXPECT_EQ(error_of([] { parse_u64("count", "1.5"); }),
            "count: '1.5' has trailing characters");
  EXPECT_EQ(error_of([] { parse_u64("count", "abc"); }),
            "count: 'abc' is not an unsigned integer");
  EXPECT_EQ(error_of([] { parse_u64("count", ""); }),
            "count: '' is not an unsigned integer");
  EXPECT_EQ(error_of([] { parse_u64("count", " 5"); }),
            "count: ' 5' is not an unsigned integer");
}

TEST(ParseNumberTest, F64AcceptsFiniteDecimalNumbers) {
  EXPECT_EQ(parse_f64("--delta-ms", "50"), 50.0);
  EXPECT_EQ(parse_f64("--delta-ms", "0.5"), 0.5);
  EXPECT_EQ(parse_f64("--delta-ms", "-2.25"), -2.25);
  EXPECT_EQ(parse_f64("rate_bps", "128e3"), 128e3);
}

TEST(ParseNumberTest, F64NamesEachKindOfBadValue) {
  EXPECT_EQ(error_of([] { parse_f64("--delta-ms", "5x"); }),
            "--delta-ms: '5x' has trailing characters");
  EXPECT_EQ(error_of([] { parse_f64("mu_bps", "abc"); }),
            "mu_bps: 'abc' is not a number");
  EXPECT_EQ(error_of([] { parse_f64("mu_bps", ""); }),
            "mu_bps: '' is not a number");
  EXPECT_EQ(error_of([] { parse_f64("mu_bps", "1e999"); }),
            "mu_bps: '1e999' is out of range");
  EXPECT_EQ(error_of([] { parse_f64("mu_bps", "inf"); }),
            "mu_bps: 'inf' is not finite");
  EXPECT_EQ(error_of([] { parse_f64("mu_bps", "nan"); }),
            "mu_bps: 'nan' is not finite");
}

}  // namespace
}  // namespace bolot

#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace bolot {
namespace {

TEST(TextTableTest, AlignsColumns) {
  TextTable table;
  table.row({"delta", "ulp"});
  table.row({"8", "0.23"});
  table.row({"500", "0.09"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("delta  ulp"), std::string::npos);
  EXPECT_NE(out.find("8      0.23"), std::string::npos);
  EXPECT_NE(out.find("500    0.09"), std::string::npos);
  // Rule under the header.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTableTest, CellAppendsToLastRow) {
  TextTable table;
  table.row({"a"});
  table.cell("b").cell(1.5, 1).cell(std::int64_t{42});
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("a  b  1.5  42"), std::string::npos);
}

TEST(TextTableTest, CellOnEmptyTableStartsRow) {
  TextTable table;
  table.cell("solo");
  std::ostringstream os;
  table.print(os);
  EXPECT_EQ(os.str().rfind("solo", 0), 0u);
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(3.0, 0), "3");
}

}  // namespace
}  // namespace bolot

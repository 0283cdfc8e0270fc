// Plain-text table rendering for the benchmark harnesses, which must print
// the same rows the paper's tables report.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace bolot {

/// A small column-aligned text table.  Cells are strings; numeric helpers
/// format with fixed precision.  Rendering pads each column to its widest
/// cell.
class TextTable {
 public:
  /// Starts a new row and fills it with the given header/body cells.
  TextTable& row(std::vector<std::string> cells);

  /// Appends one cell to the last row (starting one if none exists).
  TextTable& cell(std::string text);
  TextTable& cell(double value, int precision = 3);
  TextTable& cell(std::int64_t value);

  /// Renders with aligned columns and a rule under the first row.
  void print(std::ostream& os) const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given precision (helper shared with plots).
std::string format_double(double value, int precision);

}  // namespace bolot

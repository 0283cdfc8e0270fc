#include "util/table.h"

#include <algorithm>
#include <cstdio>

namespace bolot {

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

TextTable& TextTable::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

TextTable& TextTable::cell(std::string text) {
  if (rows_.empty()) rows_.emplace_back();
  rows_.back().push_back(std::move(text));
  return *this;
}

TextTable& TextTable::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

TextTable& TextTable::cell(std::int64_t value) {
  return cell(std::to_string(value));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths;
  for (const auto& row : rows_) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const auto& row = rows_[r];
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << "  ";
      os << row[i];
      if (i + 1 < row.size()) {
        os << std::string(widths[i] - row[i].size(), ' ');
      }
    }
    os << '\n';
    if (r == 0 && rows_.size() > 1) {
      std::size_t total = 0;
      for (std::size_t i = 0; i < widths.size(); ++i) {
        total += widths[i] + (i > 0 ? 2 : 0);
      }
      os << std::string(total, '-') << '\n';
    }
  }
}

}  // namespace bolot

#include "util/ascii_plot.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/table.h"

namespace bolot {

namespace {

struct Range {
  double lo = 0.0;
  double hi = 1.0;
};

Range resolve_range(const std::vector<double>& values,
                    std::optional<double> forced_lo,
                    std::optional<double> forced_hi) {
  Range r{std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    r.lo = std::min(r.lo, v);
    r.hi = std::max(r.hi, v);
  }
  if (!std::isfinite(r.lo)) r = {0.0, 1.0};
  if (forced_lo) r.lo = *forced_lo;
  if (forced_hi) r.hi = *forced_hi;
  if (r.hi <= r.lo) r.hi = r.lo + 1.0;
  return r;
}

char density_glyph(int count) {
  if (count <= 0) return ' ';
  if (count == 1) return '.';
  if (count <= 3) return '+';
  if (count <= 8) return '*';
  return '#';
}

void print_header(std::ostream& os, const PlotOptions& options) {
  if (!options.title.empty()) os << options.title << '\n';
  if (!options.y_label.empty()) os << "[y: " << options.y_label << "]\n";
}

void print_footer(std::ostream& os, const PlotOptions& options, double x_lo,
                  double x_hi, int width) {
  const std::string lo = format_double(x_lo, 1);
  const std::string hi = format_double(x_hi, 1);
  os << lo;
  const int pad =
      std::max(1, width - static_cast<int>(lo.size() + hi.size()));
  os << std::string(static_cast<std::size_t>(pad), ' ') << hi << '\n';
  if (!options.x_label.empty()) os << "[x: " << options.x_label << "]\n";
}

}  // namespace

void scatter_plot(std::ostream& os, const std::vector<double>& xs,
                  const std::vector<double>& ys, const PlotOptions& options) {
  const int w = std::max(8, options.width);
  const int h = std::max(4, options.height);
  const Range xr = resolve_range(xs, options.x_min, options.x_max);
  const Range yr = resolve_range(ys, options.y_min, std::nullopt);

  std::vector<int> counts(static_cast<std::size_t>(w * h), 0);
  const std::size_t n = std::min(xs.size(), ys.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(xs[i]) || !std::isfinite(ys[i])) continue;
    const double fx = (xs[i] - xr.lo) / (xr.hi - xr.lo);
    const double fy = (ys[i] - yr.lo) / (yr.hi - yr.lo);
    if (fx < 0.0 || fx > 1.0 || fy < 0.0 || fy > 1.0) continue;
    const int cx = std::min(w - 1, static_cast<int>(fx * w));
    const int cy = std::min(h - 1, static_cast<int>(fy * h));
    ++counts[static_cast<std::size_t>(cy * w + cx)];
  }

  print_header(os, options);
  for (int row = h - 1; row >= 0; --row) {
    const double y_at_row = yr.lo + (yr.hi - yr.lo) * (row + 0.5) / h;
    char label[16];
    std::snprintf(label, sizeof label, "%8.1f", y_at_row);
    os << label << " |";
    for (int col = 0; col < w; ++col) {
      os << density_glyph(counts[static_cast<std::size_t>(row * w + col)]);
    }
    os << '\n';
  }
  os << std::string(9, ' ') << '+' << std::string(static_cast<std::size_t>(w), '-')
     << '\n'
     << std::string(10, ' ');
  print_footer(os, options, xr.lo, xr.hi, w);
}

void series_plot(std::ostream& os, const std::vector<double>& values,
                 const PlotOptions& options) {
  const int w = std::max(8, options.width);
  std::vector<double> xs(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    xs[i] = static_cast<double>(i);
  }
  // Lost packets are recorded as rtt == 0 in the paper's convention; render
  // them as gaps rather than as points on the x axis.
  std::vector<double> ys = values;
  for (double& v : ys) {
    if (v == 0.0) v = std::numeric_limits<double>::quiet_NaN();
  }
  PlotOptions scatter_options = options;
  scatter_options.x_min = 0.0;
  scatter_options.x_max = static_cast<double>(values.empty() ? 1 : values.size());
  scatter_plot(os, xs, ys, scatter_options);
  (void)w;
}

void histogram_plot(std::ostream& os, const std::vector<double>& bin_centers,
                    const std::vector<double>& bin_heights,
                    const PlotOptions& options) {
  print_header(os, options);
  double max_height = 0.0;
  for (double height : bin_heights) max_height = std::max(max_height, height);
  if (max_height <= 0.0) max_height = 1.0;
  const int w = std::max(8, options.width);
  const std::size_t n = std::min(bin_centers.size(), bin_heights.size());
  for (std::size_t i = 0; i < n; ++i) {
    char label[16];
    std::snprintf(label, sizeof label, "%8.1f", bin_centers[i]);
    const int bar =
        static_cast<int>(std::lround(bin_heights[i] / max_height * w));
    os << label << " |" << std::string(static_cast<std::size_t>(bar), '#');
    if (bin_heights[i] > 0.0) {
      os << ' ' << format_double(bin_heights[i], 4);
    }
    os << '\n';
  }
  if (!options.x_label.empty()) os << "[bins: " << options.x_label << "]\n";
}

}  // namespace bolot

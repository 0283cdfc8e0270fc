// ASCII renderings of the paper's figures so each bench binary can print a
// recognizable version of the corresponding plot directly to the terminal.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace bolot {

/// Configuration shared by the plotters.  Width/height are the plotting
/// area in characters, excluding axis labels.
struct PlotOptions {
  int width = 72;
  int height = 24;
  std::string title;
  std::string x_label;
  std::string y_label;
  /// If set, force the axis bound instead of auto-scaling to the data.
  std::optional<double> x_min, x_max, y_min;
};

/// Scatter plot (used for phase plots): one marker per (x, y) point,
/// denser cells rendered with heavier glyphs.
void scatter_plot(std::ostream& os, const std::vector<double>& xs,
                  const std::vector<double>& ys, const PlotOptions& options);

/// Time-series plot (used for rtt_n vs n): index on the x axis.  Zero
/// values (lost packets in the paper's convention) are shown as gaps.
void series_plot(std::ostream& os, const std::vector<double>& values,
                 const PlotOptions& options);

/// Horizontal bar chart for a pre-binned histogram: one row per bin.
void histogram_plot(std::ostream& os, const std::vector<double>& bin_centers,
                    const std::vector<double>& bin_heights,
                    const PlotOptions& options);

}  // namespace bolot

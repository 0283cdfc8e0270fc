#include "util/ascii_plot.h"

#include <gtest/gtest.h>

#include <sstream>

namespace bolot {
namespace {

TEST(ScatterPlotTest, RendersTitleAxesAndPoints) {
  PlotOptions options;
  options.title = "phase plot";
  options.x_label = "rtt_n";
  options.width = 20;
  options.height = 8;
  std::ostringstream os;
  scatter_plot(os, {0.0, 1.0, 2.0}, {0.0, 1.0, 2.0}, options);
  const std::string out = os.str();
  EXPECT_NE(out.find("phase plot"), std::string::npos);
  EXPECT_NE(out.find("[x: rtt_n]"), std::string::npos);
  EXPECT_NE(out.find('.'), std::string::npos);  // at least one marker
}

TEST(ScatterPlotTest, EmptyInputDoesNotCrash) {
  std::ostringstream os;
  scatter_plot(os, {}, {}, PlotOptions{});
  EXPECT_FALSE(os.str().empty());
}

TEST(ScatterPlotTest, DenseCellsUseHeavierGlyphs) {
  PlotOptions options;
  options.width = 8;
  options.height = 4;
  std::vector<double> xs(100, 0.5), ys(100, 0.5);
  // Spread the range so all mass lands in one cell.
  xs.push_back(0.0);
  ys.push_back(0.0);
  xs.push_back(1.0);
  ys.push_back(1.0);
  std::ostringstream os;
  scatter_plot(os, xs, ys, options);
  EXPECT_NE(os.str().find('#'), std::string::npos);
}

TEST(SeriesPlotTest, ZeroValuesRenderAsGaps) {
  PlotOptions options;
  options.width = 10;
  options.height = 4;
  options.y_min = 0.0;
  // All values are zero (all lost): nothing should be plotted.  Inspect
  // only the plot area (after the axis '|'); labels contain dots.
  std::ostringstream os;
  series_plot(os, std::vector<double>(20, 0.0), options);
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    const auto bar = line.find('|');
    if (bar == std::string::npos) continue;
    const std::string area = line.substr(bar + 1);
    EXPECT_EQ(area.find_first_of(".+*#"), std::string::npos) << line;
  }
}

TEST(HistogramPlotTest, BarsScaleToMax) {
  PlotOptions options;
  options.width = 10;
  std::ostringstream os;
  histogram_plot(os, {1.0, 2.0}, {0.5, 1.0}, options);
  const std::string out = os.str();
  // The taller bar has 10 marks, the shorter 5.
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(HistogramPlotTest, AllZeroHeightsDoNotCrash) {
  std::ostringstream os;
  histogram_plot(os, {1.0, 2.0}, {0.0, 0.0}, PlotOptions{});
  EXPECT_FALSE(os.str().empty());
}

}  // namespace
}  // namespace bolot

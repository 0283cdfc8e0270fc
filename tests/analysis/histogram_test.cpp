#include "analysis/histogram.h"

#include <gtest/gtest.h>

#include <vector>

namespace bolot::analysis {
namespace {

TEST(HistogramTest, BinsAndCenters) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.centers().size(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_center(4), 9.0);
  EXPECT_THROW(h.bin_center(5), std::out_of_range);
}

TEST(HistogramTest, AddRoutesToCorrectBin) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);   // bin 0 (inclusive lower edge)
  h.add(1.99);  // bin 0
  h.add(2.0);   // bin 1
  h.add(9.99);  // bin 4
  // Two, one and one of the four samples.
  EXPECT_EQ(h.densities(), (std::vector<double>{0.5, 0.25, 0.0, 0.0, 0.25}));
}

TEST(HistogramTest, UnderflowAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(10.0);  // hi edge is exclusive
  h.add(100.0);
  for (const double d : h.densities()) EXPECT_EQ(d, 0.0);
  // One in-range sample: the densities are over in-range samples only,
  // while a peak's mass counts the three out-of-range ones too.
  h.add(5.0);
  EXPECT_EQ(h.densities()[2], 1.0);
  const auto peaks = h.find_peaks(0.0);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].mass, 0.25);
}

TEST(HistogramTest, DensitiesSumToOneOverInRange) {
  Histogram h(0.0, 10.0, 4);
  h.add_all(std::vector<double>{1.0, 3.0, 5.0, 7.0, 9.0, -5.0});
  const auto d = h.densities();
  double sum = 0.0;
  for (double v : d) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(HistogramTest, EmptyDensitiesAreZero) {
  Histogram h(0.0, 1.0, 3);
  for (double v : h.densities()) EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(h.find_peaks(0.01).empty());
}

TEST(HistogramTest, Validation) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(HistogramPeaksTest, FindsIsolatedPeaks) {
  Histogram h(0.0, 10.0, 10);
  // Peak at bin 2 and bin 7.
  for (int i = 0; i < 10; ++i) h.add(2.5);
  for (int i = 0; i < 5; ++i) h.add(7.5);
  h.add(4.5);
  const auto peaks = h.find_peaks(0.1, 1);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0].bin, 2u);
  EXPECT_NEAR(peaks[0].mass, 10.0 / 16.0, 1e-12);
  EXPECT_EQ(peaks[1].bin, 7u);
}

TEST(HistogramPeaksTest, MinMassFiltersSmallPeaks) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(2.5);
  h.add(7.5);  // tiny peak, mass ~1%
  EXPECT_EQ(h.find_peaks(0.05).size(), 1u);
  EXPECT_EQ(h.find_peaks(0.001).size(), 2u);
}

TEST(HistogramPeaksTest, SeparationSuppressesShoulders) {
  Histogram h(0.0, 10.0, 10);
  // Monotone ramp: bins 0..4 with increasing counts; only bin 4 is a peak.
  for (int bin = 0; bin <= 4; ++bin) {
    for (int i = 0; i <= bin * 10; ++i) h.add(bin + 0.5);
  }
  const auto peaks = h.find_peaks(0.01, 2);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].bin, 4u);
}

TEST(HistogramPeaksTest, PlateauReportsFirstBin) {
  Histogram h(0.0, 4.0, 4);
  for (int i = 0; i < 7; ++i) h.add(1.5);
  for (int i = 0; i < 7; ++i) h.add(2.5);
  const auto peaks = h.find_peaks(0.01, 1);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].bin, 1u);
}

TEST(HistogramPeaksTest, SortedByPosition) {
  Histogram h(0.0, 30.0, 30);
  for (int i = 0; i < 10; ++i) h.add(25.0);
  for (int i = 0; i < 20; ++i) h.add(5.0);
  for (int i = 0; i < 15; ++i) h.add(15.0);
  const auto peaks = h.find_peaks(0.01, 2);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_LT(peaks[0].center, peaks[1].center);
  EXPECT_LT(peaks[1].center, peaks[2].center);
}

}  // namespace
}  // namespace bolot::analysis

#include "analysis/spectral.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "util/rng.h"
#include "tests/util/normal.h"

namespace bolot::analysis {
namespace {

TEST(NextPow2Test, Values) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
}

TEST(FftTest, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(3, 0.0);
  EXPECT_THROW(fft(data), std::invalid_argument);
  data.clear();
  EXPECT_THROW(fft(data), std::invalid_argument);
}

TEST(FftTest, DeltaFunctionTransformsToFlatSpectrum) {
  std::vector<std::complex<double>> data(8, 0.0);
  data[0] = 1.0;
  fft(data);
  for (const auto& value : data) {
    EXPECT_NEAR(value.real(), 1.0, 1e-12);
    EXPECT_NEAR(value.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, InverseRoundTrips) {
  Rng rng(3);
  std::vector<std::complex<double>> data(64);
  for (auto& value : data) value = {rng.uniform(), rng.uniform()};
  const auto original = data;
  fft(data);
  fft(data, /*inverse=*/true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(FftTest, ParsevalHolds) {
  Rng rng(5);
  std::vector<std::complex<double>> data(128);
  double time_energy = 0.0;
  for (auto& value : data) {
    value = {normal(rng, 0, 1), 0.0};
    time_energy += std::norm(value);
  }
  fft(data);
  double freq_energy = 0.0;
  for (const auto& value : data) freq_energy += std::norm(value);
  EXPECT_NEAR(freq_energy / 128.0, time_energy, 1e-8 * time_energy);
}

TEST(FftTest, PureToneLandsInOneBin) {
  const std::size_t n = 256;
  std::vector<std::complex<double>> data(n);
  const std::size_t k = 17;
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = std::cos(2.0 * std::numbers::pi * static_cast<double>(k * i) /
                       static_cast<double>(n));
  }
  fft(data);
  for (std::size_t bin = 0; bin <= n / 2; ++bin) {
    const double magnitude = std::abs(data[bin]);
    if (bin == k) {
      EXPECT_NEAR(magnitude, n / 2.0, 1e-6);
    } else {
      EXPECT_NEAR(magnitude, 0.0, 1e-6) << bin;
    }
  }
}

TEST(PeriodogramTest, DominantFrequencyOfSine) {
  // Period 20 samples -> frequency 0.05 cycles/sample.
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(10.0 + std::sin(2.0 * std::numbers::pi * i / 20.0));
  }
  EXPECT_NEAR(dominant_frequency(xs), 0.05, 0.005);
}

TEST(PeriodogramTest, DiurnalCycleDetection) {
  // The Mukherjee-style use case: a slow "time of day" load cycle with
  // noise on top; the spectral peak reveals the cycle length.
  Rng rng(7);
  std::vector<double> xs;
  // 2048 samples give frequency bins at k/2048; use a bin-aligned period
  // so the peak is not split between neighbors.
  const double period = 256.0;
  for (int i = 0; i < 2048; ++i) {
    xs.push_back(100.0 +
                 30.0 * std::sin(2.0 * std::numbers::pi * i / period) +
                 normal(rng, 0.0, 5.0));
  }
  const double f = dominant_frequency(xs);
  EXPECT_NEAR(1.0 / f, period, 16.0);
}

TEST(PeriodogramTest, ExcludesDcBin) {
  std::vector<double> xs(64, 5.0);
  xs[0] = 5.1;  // not perfectly constant
  const auto pgram = periodogram(xs);
  for (const auto& pt : pgram) {
    EXPECT_GT(pt.frequency, 0.0);
    EXPECT_LE(pt.frequency, 0.5);
  }
}

TEST(PeriodogramTest, Validation) {
  const std::vector<double> tiny = {1.0, 2.0};
  EXPECT_THROW(periodogram(tiny), std::invalid_argument);
}

}  // namespace
}  // namespace bolot::analysis

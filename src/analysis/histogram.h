// Uniform-bin histogram with peak detection, used to analyze the paper's
// Fig. 8/9 distributions of w_{n+1} - w_n + delta, whose peaks identify
// the cross-traffic packet-size mix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace bolot::analysis {

struct HistogramPeak {
  std::size_t bin = 0;
  double center = 0.0;  // bin center
  double mass = 0.0;    // fraction of total samples in the peak bin
};

class Histogram {
 public:
  /// Bins [lo, hi) into `bins` equal cells.  Samples outside the range are
  /// counted in underflow/overflow.  Requires bins >= 1 and lo < hi.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  double bin_width() const;
  double bin_center(std::size_t bin) const;

  /// Fraction of in-range samples per bin (empty histogram -> zeros).
  std::vector<double> densities() const;
  std::vector<double> centers() const;

  /// Local maxima whose mass is at least `min_mass` (fraction of total)
  /// and which dominate their +-`separation_bins` neighborhood; sorted by
  /// position.  A plateau reports its first bin.
  std::vector<HistogramPeak> find_peaks(double min_mass,
                                        std::size_t separation_bins = 1) const;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace bolot::analysis

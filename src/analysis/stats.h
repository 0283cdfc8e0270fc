// Descriptive statistics shared by all analysis passes.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace bolot::analysis {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  // unbiased (n-1) when count > 1, else 0
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Welford's online mean / variance plus min / max: the one summary
/// recurrence in the library.  summarize() is a fold over it, and the
/// tomography mesh pushes one value at a time; summary() over the pushed
/// values equals summarize() over the same values in the same order, bit
/// for bit.
class StreamingSummary {
 public:
  void push(double x);

  std::size_t count() const { return count_; }
  double variance() const;  // unbiased (n-1) when count > 1, else 0
  Summary summary() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Summary of a sample; returns a zeroed struct for an empty input.
Summary summarize(std::span<const double> xs);

/// q-quantile (q in [0,1]) by linear interpolation on the sorted sample.
/// Throws on empty input or q outside [0,1].
double quantile(std::span<const double> xs, double q);

/// quantile() of a sample already sorted ascending, so that several
/// quantiles can share one sort.  Throws like quantile().
double sorted_quantile(std::span<const double> sorted, double q);

/// Median convenience wrapper.
double median(std::span<const double> xs);

/// Sample autocorrelation at lags 0..max_lag (inclusive); acf[0] == 1.
/// Throws if the sample is empty or constant.
std::vector<double> autocorrelation(std::span<const double> xs,
                                    std::size_t max_lag);

/// Pearson correlation of two equal-length samples; throws on mismatch,
/// empty input, or zero variance.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// pearson() over the (x, y) pairs that for_each_pair(visit) passes to
/// visit, in order, without storing them: two passes, the Welford
/// summaries and then the co-moment about their means.  The one Pearson
/// recurrence: pearson() folds its columns through it, and
/// loss_delay_correlation folds a trace.  Throws like pearson().
template <typename ForEachPair>
double pearson_of(ForEachPair&& for_each_pair) {
  StreamingSummary x_fold, y_fold;
  for_each_pair([&](double x, double y) {
    x_fold.push(x);
    y_fold.push(y);
  });
  if (x_fold.count() == 0) throw std::invalid_argument("pearson: empty sample");
  const Summary sx = x_fold.summary();
  const Summary sy = y_fold.summary();
  if (sx.stddev <= 0.0 || sy.stddev <= 0.0) {
    throw std::invalid_argument("pearson: zero-variance sample");
  }
  double sum = 0.0;
  for_each_pair([&](double x, double y) {
    sum += (x - sx.mean) * (y - sy.mean);
  });
  const double n = static_cast<double>(sx.count);
  return sum / ((n - 1.0) * sx.stddev * sy.stddev);
}

}  // namespace bolot::analysis

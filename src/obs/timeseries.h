// A uniformly-spaced, budget-bounded time series.
//
// The Sampler records into these: sample i sits at start() + i * stride().
// Capacity is reserved up front (push never allocates), and when a series
// reaches its budget it is *decimated* — every odd-indexed sample is
// discarded in place and the stride doubles.  The kept samples land
// exactly on the new grid, so the series stays uniformly spaced at all
// times and a fixed memory budget covers an arbitrarily long run at
// progressively coarser (but always uniform) resolution.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/time.h"

namespace bolot::obs {

class TimeSeries {
 public:
  /// `budget` must be even and >= 2 (see check_budget).
  TimeSeries(std::string name, std::size_t budget)
      : name_(std::move(name)), budget_(budget) {
    check_budget("TimeSeries", budget_);
    values_.reserve(budget_);
  }

  /// Throws std::invalid_argument unless `budget` is even and >= 2.  The
  /// decimation step must be able to halve the series, and only an even
  /// budget puts the sample due right after a decimation (old index
  /// `budget`) on the coarser grid; with an odd one it and every later
  /// sample would be stamped one old stride late.
  static void check_budget(const char* who, std::size_t budget) {
    if (budget < 2 || budget % 2 != 0) {
      throw std::invalid_argument(std::string(who) +
                                  ": budget must be even and >= 2, got " +
                                  std::to_string(budget));
    }
  }

  const std::string& name() const { return name_; }
  SimTime start() const { return start_; }
  Duration stride() const { return stride_; }
  std::size_t size() const { return values_.size(); }
  bool full() const { return values_.size() >= budget_; }
  const std::vector<double>& values() const { return values_; }

  /// Clears the series and fixes its grid.  `stride` must be positive.
  void reset(SimTime start, Duration stride) {
    if (stride <= Duration::zero()) {
      throw std::invalid_argument("TimeSeries: stride must be positive");
    }
    start_ = start;
    stride_ = stride;
    values_.clear();
  }

  /// Appends a sample at the next grid point.  The caller (Sampler)
  /// decimates before pushing into a full series, so capacity is never
  /// exceeded and push never allocates.
  void push(double v) {
    if (full()) {
      throw std::logic_error("TimeSeries: push past budget (decimate first)");
    }
    values_.push_back(v);
  }

  /// Keeps the even-indexed samples (in place) and doubles the stride.
  /// Sample k of the result is old sample 2k, so the grid origin is
  /// unchanged, and since the budget is even the next grid point after a
  /// full-budget decimation is exactly where the next push was due.
  void decimate() {
    const std::size_t n = values_.size();
    for (std::size_t i = 1; 2 * i < n; ++i) values_[i] = values_[2 * i];
    values_.resize((n + 1) / 2);
    stride_ = stride_ + stride_;
  }

 private:
  std::string name_;
  std::size_t budget_;
  SimTime start_;
  Duration stride_ = Duration::nanos(1);
  std::vector<double> values_;
};

}  // namespace bolot::obs

// The vector-based formulas that the report estimators used to compute,
// kept as test oracles.  Each shipped estimator now folds over the trace
// (or the series) without building these per-probe vectors; the fold
// tests check that it still returns exactly what these return, double
// for double.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/ar_model.h"
#include "analysis/arma_model.h"
#include "analysis/histogram.h"
#include "analysis/linalg.h"
#include "analysis/lindley.h"
#include "analysis/one_way.h"
#include "analysis/phase_plot.h"
#include "analysis/probe_trace.h"
#include "analysis/stats.h"

namespace bolot::analysis::oracle {

// ---- one-way split -------------------------------------------------------

struct OneWaySample {
  std::uint64_t seq = 0;
  double outbound_ms = 0.0;
  double return_ms = 0.0;
};

/// Per-probe one-way delays of the received records with an echo stamp.
inline std::vector<OneWaySample> one_way_samples(const ProbeTrace& trace) {
  std::vector<OneWaySample> samples;
  for (const auto& record : trace.records) {
    if (!record.received) continue;
    if (record.echo_time <= record.send_time) continue;  // no echo stamp
    OneWaySample sample;
    sample.seq = record.seq;
    sample.outbound_ms = (record.echo_time - record.send_time).millis();
    sample.return_ms =
        (record.send_time + record.rtt - record.echo_time).millis();
    samples.push_back(sample);
  }
  return samples;
}

inline OneWayAnalysis analyze_one_way(const ProbeTrace& trace) {
  const auto samples = one_way_samples(trace);
  if (samples.empty()) {
    throw std::invalid_argument("oracle::analyze_one_way: no echo stamps");
  }
  std::vector<double> outbound, back;
  for (const auto& sample : samples) {
    outbound.push_back(sample.outbound_ms);
    back.push_back(sample.return_ms);
  }
  OneWayAnalysis analysis;
  analysis.outbound = summarize(outbound);
  analysis.return_leg = summarize(back);
  std::vector<double> outbound_q = outbound;
  std::vector<double> back_q = back;
  for (double& v : outbound_q) v -= analysis.outbound.min;
  for (double& v : back_q) v -= analysis.return_leg.min;
  analysis.outbound_queueing = summarize(outbound_q);
  analysis.return_queueing = summarize(back_q);
  const double total =
      analysis.outbound_queueing.mean + analysis.return_queueing.mean;
  analysis.outbound_queueing_share =
      total > 0.0 ? analysis.outbound_queueing.mean / total : 0.5;
  return analysis;
}

// ---- loss/delay correlation ----------------------------------------------

/// Pearson correlation over two stored columns.
inline double pearson(std::span<const double> xs, std::span<const double> ys) {
  const Summary sx = summarize(xs);
  const Summary sy = summarize(ys);
  if (xs.empty() || sx.stddev <= 0.0 || sy.stddev <= 0.0) {
    throw std::invalid_argument("oracle::pearson: degenerate sample");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sum += (xs[i] - sx.mean) * (ys[i] - sy.mean);
  }
  const double n = static_cast<double>(xs.size());
  return sum / ((n - 1.0) * sx.stddev * sy.stddev);
}

/// The (loss indicator, preceding rtt) columns loss_delay_correlation
/// correlates.
inline std::pair<std::vector<double>, std::vector<double>> loss_delay_columns(
    const ProbeTrace& trace) {
  std::vector<double> loss_indicator;
  std::vector<double> preceding_rtt;
  double last_rtt_ms = -1.0;
  for (const auto& record : trace.records) {
    if (last_rtt_ms >= 0.0) {
      loss_indicator.push_back(record.received ? 0.0 : 1.0);
      preceding_rtt.push_back(last_rtt_ms);
    }
    if (record.received) last_rtt_ms = record.rtt.millis();
  }
  return {loss_indicator, preceding_rtt};
}

inline double loss_delay_correlation(const ProbeTrace& trace) {
  const auto [loss_indicator, preceding_rtt] = loss_delay_columns(trace);
  return pearson(loss_indicator, preceding_rtt);
}

// ---- bottleneck from the g_n samples -------------------------------------

/// g_n = rtt_{n+1} - rtt_n + delta over consecutively received pairs.
inline std::vector<double> workload_samples(const ProbeTrace& trace) {
  std::vector<double> samples;
  const double delta_ms = trace.delta.millis();
  const auto& records = trace.records;
  for (std::size_t n = 0; n + 1 < records.size(); ++n) {
    if (!records[n].received || !records[n + 1].received) continue;
    samples.push_back(records[n + 1].rtt.millis() - records[n].rtt.millis() +
                      delta_ms);
  }
  return samples;
}

/// The leftmost cluster of the stored g_n in (-tick, 0.75 delta) that
/// holds 1 % of all pairs: the first tick pair of a key-count map, or the
/// first peak of a 0.25 ms histogram.
inline BottleneckEstimate estimate_bottleneck(const ProbeTrace& trace) {
  constexpr double kBinMs = 0.25;
  constexpr double kMinClusterMass = 0.01;
  const std::vector<double> samples = workload_samples(trace);
  if (samples.empty()) {
    throw std::invalid_argument("oracle::estimate_bottleneck: no pairs");
  }
  const double tick_ms = trace.clock_tick.millis();
  const double search_hi = 0.75 * trace.delta.millis();
  std::vector<double> candidates;
  for (double g : samples) {
    if (g > -tick_ms && g < search_hi) candidates.push_back(g);
  }
  const double min_count =
      kMinClusterMass * static_cast<double>(samples.size());
  std::optional<std::pair<double, double>> window;
  if (tick_ms > 0.0) {
    std::map<std::int64_t, std::size_t> counts;
    for (double g : candidates) {
      ++counts[static_cast<std::int64_t>(std::llround(g * 1e3))];
    }
    const auto tick_us = static_cast<std::int64_t>(std::llround(tick_ms * 1e3));
    for (const auto& [key, count] : counts) {
      const auto next = counts.find(key + tick_us);
      const std::size_t pair =
          count + (next == counts.end() ? 0 : next->second);
      if (static_cast<double>(pair) >= min_count) {
        window = {static_cast<double>(key) * 1e-3 - 1e-3,
                  static_cast<double>(key + tick_us) * 1e-3 + 1e-3};
        break;
      }
    }
  } else if (!candidates.empty()) {
    Histogram hist(0.0, search_hi,
                   static_cast<std::size_t>(
                       std::max(4.0, std::ceil(search_hi / kBinMs))));
    hist.add_all(candidates);
    const auto peaks = hist.find_peaks(
        min_count / static_cast<double>(candidates.size()), 2);
    if (!peaks.empty()) {
      window = {peaks.front().center - hist.bin_width(),
                peaks.front().center + hist.bin_width()};
    }
  }
  if (!window) {
    throw std::runtime_error("oracle::estimate_bottleneck: no cluster");
  }
  double sum = 0.0;
  std::size_t count = 0;
  for (double g : samples) {
    if (g > window->first && g <= window->second) {
      sum += g;
      ++count;
    }
  }
  BottleneckEstimate estimate;
  estimate.service_time_ms = sum / static_cast<double>(count);
  if (estimate.service_time_ms <= 0.0) {
    throw std::runtime_error("oracle::estimate_bottleneck: no cluster");
  }
  estimate.mu_bps = static_cast<double>(trace.probe_wire_bytes * 8) /
                    (estimate.service_time_ms * 1e-3);
  estimate.cluster_samples = count;
  estimate.cluster_fraction =
      static_cast<double>(count) / static_cast<double>(samples.size());
  return estimate;
}

// ---- phase plot ----------------------------------------------------------

inline PhasePlot phase_plot(const ProbeTrace& trace) {
  PhasePlot plot;
  const auto& records = trace.records;
  for (std::size_t n = 0; n + 1 < records.size(); ++n) {
    if (!records[n].received || !records[n + 1].received) continue;
    plot.x.push_back(records[n].rtt.millis());
    plot.y.push_back(records[n + 1].rtt.millis());
  }
  return plot;
}

/// The stored plot's bands around the intercept delta - P/mu of
/// estimate_bottleneck above.
inline PhaseAnalysis analyze_phase_plot(const ProbeTrace& trace) {
  constexpr double kToleranceMs = 4.0;
  const PhasePlot plot = phase_plot(trace);
  if (plot.size() == 0) {
    throw std::invalid_argument("oracle::analyze_phase_plot: no pairs");
  }
  PhaseAnalysis result;
  result.fixed_delay_ms = std::numeric_limits<double>::infinity();
  for (double v : plot.x) result.fixed_delay_ms = std::min(result.fixed_delay_ms, v);
  for (double v : plot.y) result.fixed_delay_ms = std::min(result.fixed_delay_ms, v);
  try {
    result.compression_intercept_ms =
        trace.delta.millis() -
        oracle::estimate_bottleneck(trace).service_time_ms;
  } catch (const std::runtime_error&) {
  }
  std::size_t on_line = 0;
  std::size_t on_diagonal = 0;
  for (std::size_t i = 0; i < plot.size(); ++i) {
    const double d = plot.x[i] - plot.y[i];
    if (result.compression_intercept_ms &&
        std::abs(d - *result.compression_intercept_ms) <= kToleranceMs) {
      ++on_line;
    }
    if (std::abs(d) <= kToleranceMs) ++on_diagonal;
  }
  result.compression_fraction =
      static_cast<double>(on_line) / static_cast<double>(plot.size());
  result.diagonal_fraction =
      static_cast<double>(on_diagonal) / static_cast<double>(plot.size());
  return result;
}

// ---- least squares -------------------------------------------------------

/// The normal-equations loop each solver used to run on its own:
/// X^T X (+ lambda I when lambda > 0) beta = X^T y.
inline std::vector<double> least_squares_loop(const Matrix& x,
                                              std::span<const double> y,
                                              double lambda = 0.0) {
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  Matrix xtx(p, p);
  std::vector<double> xty(p, 0.0);
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t i = 0; i < p; ++i) {
      const double xi = x.row(row)[i];
      xty[i] += xi * y[row];
      for (std::size_t j = i; j < p; ++j) {
        xtx.at(i, j) += xi * x.row(row)[j];
      }
    }
  }
  for (std::size_t i = 0; i < p; ++i) {
    if (lambda > 0.0) xtx.at(i, i) += lambda;
    for (std::size_t j = 0; j < i; ++j) {
      xtx.at(i, j) = xtx.at(j, i);
    }
  }
  return solve_linear(std::move(xtx), std::move(xty));
}

// ---- AR / ARMA residuals -------------------------------------------------

/// One-step-ahead AR prediction errors from index p on.
inline std::vector<double> ar_residuals(const ArModel& model,
                                        std::span<const double> xs) {
  const std::size_t p = model.order();
  std::vector<double> residuals;
  for (std::size_t t = p; t < xs.size(); ++t) {
    residuals.push_back(xs[t] - model.predict_next(xs.subspan(t - p, p)));
  }
  return residuals;
}

inline double ar_r_squared(const ArModel& model, std::span<const double> xs) {
  const auto residuals = ar_residuals(model, xs);
  const Summary ss = summarize(xs);
  double mse = 0.0;
  for (double r : residuals) mse += r * r;
  mse /= static_cast<double>(residuals.size());
  return 1.0 - mse / ss.variance;
}

/// One-step-ahead ARMA prediction errors by innovation filtering over
/// the whole series, the first max(p, q) dropped as burn-in.
inline std::vector<double> arma_residuals(const ArmaModel& model,
                                          std::span<const double> xs) {
  const std::size_t p = model.p();
  const std::size_t q = model.q();
  const std::size_t burn_in = std::max(p, q);
  std::vector<double> e(xs.size(), 0.0);
  for (std::size_t t = 1; t < xs.size(); ++t) {
    double forecast = model.mean;
    for (std::size_t i = 0; i < p && i < t; ++i) {
      forecast += model.ar[i] * (xs[t - 1 - i] - model.mean);
    }
    for (std::size_t j = 0; j < q && j < t; ++j) {
      forecast += model.ma[j] * e[t - 1 - j];
    }
    e[t] = xs[t] - forecast;
  }
  return {e.begin() + static_cast<long>(burn_in), e.end()};
}

inline double arma_r_squared(const ArmaModel& model,
                             std::span<const double> xs) {
  const auto residuals = arma_residuals(model, xs);
  const Summary s = summarize(xs);
  double mse = 0.0;
  for (double r : residuals) mse += r * r;
  mse /= static_cast<double>(residuals.size());
  return 1.0 - mse / s.variance;
}

/// Hannan-Rissanen with the stored innovations and design matrix.
inline ArmaModel fit_arma(std::span<const double> xs, std::size_t p,
                          std::size_t q) {
  const std::size_t long_order =
      std::max<std::size_t>(std::max(p, q) * 2 + 4, 12);
  const Summary s = summarize(xs);
  const ArModel long_ar = fit_ar(xs, long_order);
  std::vector<double> innovations(xs.size(), 0.0);
  for (std::size_t t = long_order; t < xs.size(); ++t) {
    innovations[t] =
        xs[t] - long_ar.predict_next(xs.subspan(t - long_order, long_order));
  }
  const std::size_t start = long_order + std::max(p, q);
  const std::size_t rows = xs.size() - start;
  Matrix design(rows, p + q);
  std::vector<double> target(rows, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t t = start + r;
    target[r] = xs[t] - s.mean;
    for (std::size_t i = 0; i < p; ++i) {
      design.at(r, i) = xs[t - 1 - i] - s.mean;
    }
    for (std::size_t j = 0; j < q; ++j) {
      design.at(r, p + j) = innovations[t - 1 - j];
    }
  }
  const std::vector<double> beta = least_squares_loop(design, target);
  ArmaModel model;
  model.ar.assign(beta.begin(), beta.begin() + static_cast<long>(p));
  model.ma.assign(beta.begin() + static_cast<long>(p), beta.end());
  model.mean = s.mean;
  const auto residuals = arma_residuals(model, xs);
  double mse = 0.0;
  for (double r : residuals) mse += r * r;
  model.noise_variance =
      residuals.empty() ? 0.0 : mse / static_cast<double>(residuals.size());
  return model;
}

}  // namespace bolot::analysis::oracle

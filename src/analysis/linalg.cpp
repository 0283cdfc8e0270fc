#include "analysis/linalg.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace bolot::analysis {

std::vector<double> solve_linear(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    throw std::invalid_argument("solve_linear: shape mismatch");
  }
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a.at(row, col)) > std::abs(a.at(pivot, col))) pivot = row;
    }
    if (std::abs(a.at(pivot, col)) < 1e-12) {
      throw std::runtime_error("solve_linear: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a.at(pivot, c), a.at(col, c));
      }
      std::swap(b[pivot], b[col]);
    }
    // Eliminate below.
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a.at(row, col) / a.at(col, col);
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) {
        a.at(row, c) -= factor * a.at(col, c);
      }
      b[row] -= factor * b[col];
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (std::size_t c = i + 1; c < n; ++c) sum -= a.at(i, c) * x[c];
    x[i] = sum / a.at(i, i);
  }
  return x;
}

void NormalEquations::add_row(std::span<const double> x, double y) {
  const std::size_t p = cols();
  if (x.size() != p) throw std::invalid_argument("NormalEquations: row size");
  for (std::size_t i = 0; i < p; ++i) {
    const double xi = x[i];
    xty_[i] += xi * y;
    for (std::size_t j = i; j < p; ++j) {
      xtx_.at(i, j) += xi * x[j];
    }
  }
}

std::vector<double> NormalEquations::solve(double lambda) const {
  Matrix xtx = xtx_;
  for (std::size_t i = 0; i < cols(); ++i) {
    // X^T X's diagonal is a sum of squares, never -0.0, so lambda = 0
    // leaves it bit for bit.
    xtx.at(i, i) += lambda;
    for (std::size_t j = 0; j < i; ++j) {
      xtx.at(i, j) = xtx.at(j, i);
    }
  }
  return solve_linear(std::move(xtx), xty_);
}

namespace {

NormalEquations accumulate(const Matrix& x, std::span<const double> y) {
  NormalEquations normal(x.cols());
  for (std::size_t row = 0; row < x.rows(); ++row) {
    normal.add_row(x.row(row), y[row]);
  }
  return normal;
}

}  // namespace

std::vector<double> least_squares(const Matrix& x, std::span<const double> y) {
  if (y.size() != x.rows()) {
    throw std::invalid_argument("least_squares: y size");
  }
  if (x.rows() < x.cols()) {
    throw std::invalid_argument("least_squares: underdetermined");
  }
  return accumulate(x, y).solve();
}

std::vector<double> ridge_least_squares(const Matrix& x,
                                        std::span<const double> y,
                                        double lambda) {
  if (y.size() != x.rows()) {
    throw std::invalid_argument("ridge_least_squares: y size");
  }
  if (!(lambda > 0.0)) {  // the negation also rejects NaN
    throw std::invalid_argument("ridge_least_squares: lambda must be > 0");
  }
  return accumulate(x, y).solve(lambda);
}

}  // namespace bolot::analysis

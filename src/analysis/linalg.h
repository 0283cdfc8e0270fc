// Minimal dense linear algebra for the model-fitting routines: just what
// Hannan-Rissanen ARMA estimation needs (a linear solver and ordinary
// least squares), kept deliberately small.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace bolot::analysis {

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

 private:
  std::size_t rows_, cols_;
  std::vector<double> data_;
};

/// Solves A x = b by Gaussian elimination with partial pivoting.  A must
/// be square with rows() == b.size().  Throws std::invalid_argument on
/// shape mismatch, std::runtime_error if A is (numerically) singular.
std::vector<double> solve_linear(Matrix a, std::vector<double> b);

/// The normal equations X^T X beta = X^T y, accumulated one design row
/// at a time: the one recurrence behind both least-squares solvers, and
/// what lets a caller (fit_arma) regress on rows it never stores.
class NormalEquations {
 public:
  explicit NormalEquations(std::size_t cols)
      : xtx_(cols, cols), xty_(cols, 0.0) {}

  std::size_t cols() const { return xty_.size(); }

  /// Adds one design row x (cols() values) with its target y.
  void add_row(std::span<const double> x, double y);

  /// Solves (X^T X + lambda I) beta = X^T y over the rows added so far;
  /// lambda = 0 is ordinary least squares.  Throws like solve_linear.
  std::vector<double> solve(double lambda = 0.0) const;

 private:
  Matrix xtx_;  // upper triangle only until solve() mirrors it
  std::vector<double> xty_;
};

/// Ordinary least squares: minimizes ||X beta - y||^2 via the normal
/// equations.  X.rows() == y.size() and X.rows() >= X.cols() required.
std::vector<double> least_squares(const Matrix& x, std::span<const double> y);

/// Ridge-regularized least squares: minimizes
/// ||X beta - y||^2 + lambda ||beta||^2 with lambda > 0.  Unlike
/// least_squares, X^T X + lambda I is always invertible, so rank-deficient
/// designs (e.g. a tomography routing matrix with unresolvable link
/// classes) get the minimum-norm-flavored solution instead of a throw.
std::vector<double> ridge_least_squares(const Matrix& x,
                                        std::span<const double> y,
                                        double lambda);

}  // namespace bolot::analysis

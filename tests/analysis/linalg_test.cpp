#include "analysis/linalg.h"

#include <gtest/gtest.h>

#include "util/rng.h"
#include "tests/analysis/vector_oracles.h"
#include "tests/util/normal.h"

namespace bolot::analysis {
namespace {

TEST(SolveLinearTest, SolvesKnownSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = (1, 3).
  Matrix a(2, 2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  const auto x = solve_linear(a, {5.0, 10.0});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinearTest, PivotsWhenDiagonalIsZero) {
  // [0 1; 1 0] x = [2; 3] -> x = (3, 2): requires a row swap.
  Matrix a(2, 2);
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  const auto x = solve_linear(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveLinearTest, RandomSystemsRoundTrip) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 5;
    Matrix a(n, n);
    std::vector<double> x_true(n);
    for (std::size_t i = 0; i < n; ++i) {
      x_true[i] = rng.uniform(-5.0, 5.0);
      for (std::size_t j = 0; j < n; ++j) {
        a.at(i, j) = rng.uniform(-1.0, 1.0);
      }
      a.at(i, i) += 3.0;  // keep well-conditioned
    }
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) b[i] += a.at(i, j) * x_true[j];
    }
    const auto x = solve_linear(a, b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-9) << trial;
    }
  }
}

TEST(SolveLinearTest, RejectsSingularAndBadShapes) {
  Matrix singular(2, 2);
  singular.at(0, 0) = 1;
  singular.at(0, 1) = 2;
  singular.at(1, 0) = 2;
  singular.at(1, 1) = 4;
  EXPECT_THROW(solve_linear(singular, {1.0, 2.0}), std::runtime_error);

  Matrix rect(2, 3);
  EXPECT_THROW(solve_linear(rect, {1.0, 2.0}), std::invalid_argument);
  Matrix square(2, 2);
  square.at(0, 0) = square.at(1, 1) = 1;
  EXPECT_THROW(solve_linear(square, {1.0}), std::invalid_argument);
}

TEST(LeastSquaresTest, ExactFitForDeterminedSystem) {
  // y = 2 + 3x sampled exactly.
  Matrix design(4, 2);
  std::vector<double> y(4);
  for (int i = 0; i < 4; ++i) {
    design.at(static_cast<std::size_t>(i), 0) = 1.0;
    design.at(static_cast<std::size_t>(i), 1) = i;
    y[static_cast<std::size_t>(i)] = 2.0 + 3.0 * i;
  }
  const auto beta = least_squares(design, y);
  EXPECT_NEAR(beta[0], 2.0, 1e-10);
  EXPECT_NEAR(beta[1], 3.0, 1e-10);
}

TEST(LeastSquaresTest, RecoversCoefficientsUnderNoise) {
  Rng rng(7);
  const std::size_t n = 20000;
  Matrix design(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    design.at(i, 0) = 1.0;
    design.at(i, 1) = a;
    design.at(i, 2) = b;
    y[i] = 4.0 - 2.0 * a + 0.5 * b + normal(rng, 0.0, 0.3);
  }
  const auto beta = least_squares(design, y);
  EXPECT_NEAR(beta[0], 4.0, 0.02);
  EXPECT_NEAR(beta[1], -2.0, 0.02);
  EXPECT_NEAR(beta[2], 0.5, 0.02);
}

TEST(LeastSquaresTest, BothSolversMatchTheirOwnNormalEquationsLoop) {
  // Both solvers now share one row accumulator; each must still return,
  // bit for bit, what its own X^T X / X^T y loop returned.
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 50 + static_cast<std::size_t>(trial) * 37;
    const std::size_t p = 1 + static_cast<std::size_t>(trial) % 4;
    Matrix design(n, p);
    std::vector<double> y(n);
    for (std::size_t row = 0; row < n; ++row) {
      for (std::size_t col = 0; col < p; ++col) {
        design.at(row, col) = rng.uniform(-3.0, 3.0);
      }
      y[row] = rng.uniform(-10.0, 10.0);
    }
    const auto ols = least_squares(design, y);
    const auto ols_loop = oracle::least_squares_loop(design, y);
    const auto ridge = ridge_least_squares(design, y, 1e-6);
    const auto ridge_loop = oracle::least_squares_loop(design, y, 1e-6);
    ASSERT_EQ(ols.size(), p);
    ASSERT_EQ(ridge.size(), p);
    for (std::size_t i = 0; i < p; ++i) {
      EXPECT_EQ(ols[i], ols_loop[i]) << "trial " << trial << " coef " << i;
      EXPECT_EQ(ridge[i], ridge_loop[i]) << "trial " << trial << " coef " << i;
    }
  }
}

TEST(NormalEquationsTest, RowsFedDirectlyEqualTheMatrixSolve) {
  // y = 1 - x + 0.5 x^2 on a grid: the rows fed one at a time solve to
  // the same coefficients as the stored design.
  Matrix design(9, 3);
  std::vector<double> y(9);
  NormalEquations normal(3);
  for (std::size_t i = 0; i < 9; ++i) {
    const double x = static_cast<double>(i) - 4.0;
    const std::vector<double> row = {1.0, x, x * x};
    for (std::size_t c = 0; c < 3; ++c) design.at(i, c) = row[c];
    y[i] = 1.0 - x + 0.5 * x * x;
    normal.add_row(row, y[i]);
  }
  EXPECT_EQ(normal.solve(), least_squares(design, y));
  EXPECT_EQ(normal.solve(0.5), ridge_least_squares(design, y, 0.5));
  const std::vector<double> wrong_width = {1.0, 2.0};
  EXPECT_THROW(normal.add_row(wrong_width, 0.0), std::invalid_argument);
}

TEST(LeastSquaresTest, RejectsUnderdetermined) {
  Matrix design(2, 3);
  const std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(least_squares(design, y), std::invalid_argument);
}

}  // namespace
}  // namespace bolot::analysis

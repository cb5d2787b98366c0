#include "linalg/decomp.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace hslb::linalg {
namespace {

Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-2.0, 2.0);
  return m;
}

TEST(QR, ExactSolveSquare) {
  const auto a = Matrix::from_rows({{2.0, 1.0}, {1.0, 3.0}});
  QR qr;
  qr.factor(a);
  Vector b{5.0, 10.0}, x(2);
  qr.solve(b, x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(QR, LeastSquaresOverdetermined) {
  // Fit y = p0 + p1*t through (0,1),(1,3),(2,5): exact line 1 + 2t.
  const auto a = Matrix::from_rows({{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}});
  QR qr;
  qr.factor(a);
  Vector b{1.0, 3.0, 5.0}, x(2);
  qr.solve(b, x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(QR, LeastSquaresResidualOrthogonal) {
  // One object refactored for every draw, larger and smaller than the last.
  Rng rng(7);
  QR qr;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t rows = static_cast<std::size_t>(rng.uniform_int(3, 10));
    const std::size_t cols = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(rows)));
    const auto a = random_matrix(rng, rows, cols);
    qr.factor(a);
    if (qr.min_abs_diag_r() < 1e-6) continue;  // skip near-singular draws
    Vector b(rows);
    for (auto& v : b) v = rng.uniform(-3.0, 3.0);
    Vector work = b, x(cols);
    qr.solve(work, x);
    // Normal equations: A^T (A x - b) = 0.
    auto r = a.mul(x);
    for (std::size_t i = 0; i < rows; ++i) r[i] -= b[i];
    const auto atr = a.mul_transpose(r);
    for (double v : atr) EXPECT_NEAR(v, 0.0, 1e-8);
  }
}

TEST(QR, RankDeficientThrows) {
  const auto a = Matrix::from_rows({{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}});
  QR qr;
  qr.factor(a);
  Vector b{1.0, 2.0, 3.0}, x(2);
  EXPECT_THROW(qr.solve(b, x), ContractViolation);
}

TEST(LU, SolvesKnownSystem) {
  const auto a = Matrix::from_rows({{0.0, 2.0}, {1.0, 1.0}});  // needs pivoting
  const auto lu = LU::factor(a);
  ASSERT_TRUE(lu.has_value());
  const auto x = lu->solve(std::vector<double>{4.0, 3.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LU, DetectsSingular) {
  const auto a = Matrix::from_rows({{1.0, 2.0}, {2.0, 4.0}});
  EXPECT_FALSE(LU::factor(a).has_value());
}

TEST(LU, PropertyRandomSolveAndTranspose) {
  Rng rng(55);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 10));
    auto a = random_matrix(rng, n, n);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;  // well-conditioned
    const auto lu = LU::factor(a);
    ASSERT_TRUE(lu.has_value());
    Vector b(n);
    for (auto& v : b) v = rng.uniform(-5.0, 5.0);

    const auto x = lu->solve(b);
    const auto ax = a.mul(x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);

    const auto xt = lu->solve_transpose(b);
    const auto atxt = a.mul_transpose(xt);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(atxt[i], b[i], 1e-8);
  }
}

std::vector<std::vector<SparseEntry>> to_columns(const Matrix& a) {
  std::vector<std::vector<SparseEntry>> cols(a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      if (a(i, j) != 0.0) cols[j].push_back({i, a(i, j)});
  return cols;
}

/// Random sparse square matrix with a boosted diagonal so every draw is
/// comfortably nonsingular (the FT tests replace columns repeatedly; we
/// want instability to be the exception we trigger deliberately).
Matrix random_sparse_square(Rng& rng, std::size_t n) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.uniform(2.0, 4.0) * (rng.uniform(0.0, 1.0) < 0.5 ? -1 : 1);
    for (std::size_t j = 0; j < n; ++j)
      if (j != i && rng.uniform(0.0, 1.0) < 0.3) a(i, j) = rng.uniform(-1, 1);
  }
  return a;
}

/// x = A^{-1} b and w = A^{-T} b through the span API (b is consumed).
Vector solve(const UpdatableLU& lu, Vector b) {
  Vector x(b.size());
  lu.solve(b, x);
  return x;
}

Vector solve_transpose(const UpdatableLU& lu, Vector b) {
  Vector w(b.size());
  lu.solve_transpose(b, w);
  return w;
}

TEST(UpdatableLU, MatchesDenseFactorBeforeUpdates) {
  Rng rng(202);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto a = random_sparse_square(rng, n);
    UpdatableLU lu;
    ASSERT_TRUE(lu.refactor(to_columns(a)));
    EXPECT_EQ(lu.nnz(), lu.base_fill());
    EXPECT_EQ(lu.updates(), 0u);
    const auto dense = LU::factor(a);
    ASSERT_TRUE(dense.has_value());
    Vector b(n);
    for (auto& v : b) v = rng.uniform(-5.0, 5.0);
    const auto x = solve(lu, b);
    const auto xd = dense->solve(b);
    const auto xt = solve_transpose(lu, b);
    const auto xtd = dense->solve_transpose(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], xd[i], 1e-10);
      EXPECT_NEAR(xt[i], xtd[i], 1e-10);
    }
  }
}

TEST(UpdatableLU, PropertyColumnReplacementTracksRefactoredMatrix) {
  // Replace several columns via solve_entering + update and check both
  // solves against a dense LU of the explicitly modified matrix.
  Rng rng(303);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 12));
    auto a = random_sparse_square(rng, n);
    UpdatableLU lu;
    ASSERT_TRUE(lu.refactor(to_columns(a)));

    const int rounds = static_cast<int>(rng.uniform_int(1, 6));
    for (int round = 0; round < rounds; ++round) {
      const auto p = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      Vector aq(n, 0.0);
      aq[p] = rng.uniform(2.0, 4.0);  // keep the replacement well-posed
      for (std::size_t i = 0; i < n; ++i)
        if (i != p && rng.uniform(0.0, 1.0) < 0.4) aq[i] = rng.uniform(-1, 1);

      Vector dir(n), rhs = aq;
      lu.solve_entering(rhs, dir);
      ASSERT_GT(std::abs(dir[p]), 1e-8);  // replacement keeps B nonsingular
      ASSERT_EQ(lu.update(p), UpdatableLU::UpdateResult::Ok);
      for (std::size_t i = 0; i < n; ++i) a(i, p) = aq[i];

      const auto dense = LU::factor(a);
      ASSERT_TRUE(dense.has_value());
      Vector b(n);
      for (auto& v : b) v = rng.uniform(-5.0, 5.0);
      const auto x = solve(lu, b);
      const auto xd = dense->solve(b);
      const auto xt = solve_transpose(lu, b);
      const auto xtd = dense->solve_transpose(b);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x[i], xd[i], 1e-7);
        EXPECT_NEAR(xt[i], xtd[i], 1e-7);
      }
    }
    EXPECT_EQ(lu.updates(), static_cast<std::size_t>(rounds));
    EXPECT_GE(lu.nnz(), lu.base_fill());
  }
}

TEST(UpdatableLU, RejectsSingularReplacement) {
  // Replacing column 1 with a copy of column 0 makes the basis singular;
  // the update must report Unstable instead of committing garbage.
  const auto a = Matrix::from_rows(
      {{3.0, 1.0, 0.0}, {1.0, 4.0, 1.0}, {0.0, 1.0, 3.0}});
  UpdatableLU lu;
  ASSERT_TRUE(lu.refactor(to_columns(a)));
  Vector col0{3.0, 1.0, 0.0}, dir(3);
  lu.solve_entering(col0, dir);
  EXPECT_EQ(lu.update(1), UpdatableLU::UpdateResult::Unstable);
}

TEST(UpdatableLU, UpdateWithoutEnteringSolveThrows) {
  const auto a = Matrix::from_rows({{2.0, 0.0}, {0.0, 2.0}});
  UpdatableLU lu;
  ASSERT_TRUE(lu.refactor(to_columns(a)));
  EXPECT_THROW(lu.update(0), ContractViolation);
}

}  // namespace
}  // namespace hslb::linalg

#include "linalg/sparse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "linalg/decomp.hpp"

namespace hslb::linalg {
namespace {

TEST(Scatter, PatternTracksTouchedAndClearIsSparse) {
  Scatter s(8);
  s.add(3, 1.5);
  s.add(6, 2.0);
  s.add(3, -1.5);
  ASSERT_EQ(s.pattern().size(), 2u);
  EXPECT_EQ(s.pattern()[0], 3u);
  EXPECT_EQ(s.pattern()[1], 6u);
  EXPECT_DOUBLE_EQ(s[3], 0.0);  // cancelled but still in the pattern
  EXPECT_DOUBLE_EQ(s[6], 2.0);
  s.clear();
  EXPECT_TRUE(s.pattern().empty());
  EXPECT_DOUBLE_EQ(s[3], 0.0);
  EXPECT_DOUBLE_EQ(s[6], 0.0);
}

std::vector<std::vector<SparseEntry>> to_columns(const Matrix& a) {
  std::vector<std::vector<SparseEntry>> cols(a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      if (a(i, j) != 0.0) cols[j].push_back({i, a(i, j)});
    }
  }
  return cols;
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

TEST(UpdatableLURefactor, SolvesKnownSystemNeedingPivoting) {
  const auto a = Matrix::from_rows({{0.0, 2.0}, {1.0, 1.0}});
  UpdatableLU lu;
  ASSERT_TRUE(lu.refactor(to_columns(a)));
  const auto x = solve(lu, {4.0, 3.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  const auto xt = solve_transpose(lu, {4.0, 3.0});
  // A^T x = b: x = (3, 1/2): row checks 0*3+1*0.5... solve numerically below.
  const auto atx = a.mul_transpose(xt);
  EXPECT_NEAR(atx[0], 4.0, 1e-12);
  EXPECT_NEAR(atx[1], 3.0, 1e-12);
}

TEST(UpdatableLURefactor, DetectsSingular) {
  const auto a = Matrix::from_rows({{1.0, 2.0}, {2.0, 4.0}});
  UpdatableLU lu;
  EXPECT_FALSE(lu.refactor(to_columns(a)));
  EXPECT_THROW(solve(lu, {1.0, 2.0}), ContractViolation);  // no factors
  // A structurally empty column is singular too.
  EXPECT_FALSE(lu.refactor(std::vector<std::vector<SparseEntry>>{
      {{0, 1.0}, {1, 1.0}}, {}}));
}

TEST(UpdatableLURefactor, PropertyRandomSparseSolveMatchesDenseLU) {
  Rng rng(55);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 24));
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.uniform(0.0, 1.0) < 0.25) a(i, j) = rng.uniform(-2.0, 2.0);
      }
      a(i, i) += 3.0;  // keep it nonsingular and well-conditioned
    }
    UpdatableLU slu;
    ASSERT_TRUE(slu.refactor(to_columns(a)));
    Vector b(n);
    for (auto& v : b) v = rng.uniform(-5.0, 5.0);

    const auto x = solve(slu, b);
    const auto ax = a.mul(x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);

    const auto xt = solve_transpose(slu, b);
    const auto atxt = a.mul_transpose(xt);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(atxt[i], b[i], 1e-8);
  }
}

TEST(UpdatableLURefactor, HypersparseUnitRhsSolves) {
  // A basis-like matrix: identity plus a few couplings. Solving against
  // unit vectors must reproduce columns/rows of the inverse.
  Rng rng(9);
  const std::size_t n = 30;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = 1.0 + rng.uniform(0.0, 1.0);
  for (int k = 0; k < 15; ++k) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    if (i != j) a(i, j) = rng.uniform(-0.5, 0.5);
  }
  UpdatableLU slu;
  ASSERT_TRUE(slu.refactor(to_columns(a)));
  for (std::size_t k = 0; k < n; ++k) {
    Vector e(n, 0.0);
    e[k] = 1.0;
    const auto x = solve(slu, e);
    const auto ax = a.mul(x);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(ax[i], i == k ? 1.0 : 0.0, 1e-9);
    }
    const auto xt = solve_transpose(slu, e);
    const auto atxt = a.mul_transpose(xt);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(atxt[i], i == k ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(UpdatableLURefactor, FillStaysNearBasisNnzOnSingletonHeavyBasis) {
  // Slack-heavy simplex basis shape: mostly singleton columns, a few dense-ish
  // structural columns. Markowitz should keep fill close to the input nnz.
  const std::size_t n = 50;
  std::vector<std::vector<SparseEntry>> cols(n);
  std::size_t input_nnz = 0;
  Rng rng(123);
  for (std::size_t j = 0; j < n; ++j) {
    if (j % 10 == 0) {
      for (std::size_t i = 0; i < n; i += 7) {
        cols[j].push_back({i, rng.uniform(0.5, 2.0)});
      }
    } else {
      cols[j].push_back({j, -1.0});
    }
    input_nnz += cols[j].size();
  }
  // Make it nonsingular: ensure each structural column hits its own row hard.
  for (std::size_t j = 0; j < n; j += 10) {
    bool has_diag = false;
    for (auto& e : cols[j]) {
      if (e.index == j) {
        e.value += 4.0;
        has_diag = true;
      }
    }
    if (!has_diag) cols[j].push_back({j, 4.0});
    std::sort(cols[j].begin(), cols[j].end(),
              [](const SparseEntry& a, const SparseEntry& b) {
                return a.index < b.index;
              });
  }
  input_nnz = 0;
  for (const auto& c : cols) input_nnz += c.size();
  UpdatableLU slu;
  ASSERT_TRUE(slu.refactor(cols));
  EXPECT_EQ(slu.nnz(), slu.base_fill());
  EXPECT_LE(slu.nnz(), 2 * input_nnz + n);
}


/// Random sparse n x n matrix with a dominant diagonal, as columns.
std::vector<std::vector<SparseEntry>> random_dominant(Rng& rng, std::size_t n) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.uniform(0.0, 1.0) < 0.25) a(i, j) = rng.uniform(-2.0, 2.0);
    }
    a(i, i) += 3.0;
  }
  return to_columns(a);
}

TEST(UpdatableLURefactor, ReusedObjectSolvesExactlyLikeFreshOnes) {
  // One object refactored through bases that grow and shrink (with updates
  // in between) must give bit-identical factors and solves to a fresh
  // object per basis: no state may leak from one factorization to the next.
  Rng rng(77);
  UpdatableLU reused;
  for (const std::size_t n : {12, 3, 30, 1, 30, 7, 18, 0, 9}) {
    const auto cols = random_dominant(rng, n);
    UpdatableLU fresh;
    ASSERT_TRUE(fresh.refactor(cols));
    ASSERT_TRUE(reused.refactor(cols));
    EXPECT_EQ(reused.nnz(), fresh.nnz());
    Vector b(n);
    for (auto& v : b) v = rng.uniform(-5.0, 5.0);
    EXPECT_EQ(solve(reused, b), solve(fresh, b));
    EXPECT_EQ(solve_transpose(reused, b), solve_transpose(fresh, b));
    if (n == 0) continue;
    // One Forrest-Tomlin update on both, so the next refactor of `reused`
    // starts from a state carrying row etas and moved steps.
    Vector aq(n, 0.0), x(n);
    for (std::size_t i = 0; i < n; ++i) aq[i] = rng.uniform(-1.0, 1.0);
    aq[n / 2] += 4.0;
    Vector aq2 = aq;
    reused.solve_entering(aq, x);
    fresh.solve_entering(aq2, x);
    ASSERT_EQ(reused.update(n / 2), fresh.update(n / 2));
    EXPECT_EQ(solve(reused, b), solve(fresh, b));
    EXPECT_EQ(solve_transpose(reused, b), solve_transpose(fresh, b));
  }
}

TEST(UpdatableLURefactor, SingularRefactorLeavesTheOtherBufferUsable) {
  // The simplex keeps two factor buffers and refactors into the spare: a
  // singular basis must fail cleanly and leave the active factors intact.
  const auto good = Matrix::from_rows({{2.0, 1.0}, {1.0, 3.0}});
  const auto singular = Matrix::from_rows({{1.0, 2.0}, {2.0, 4.0}});
  UpdatableLU active, spare;
  ASSERT_TRUE(active.refactor(to_columns(good)));
  ASSERT_TRUE(spare.refactor(to_columns(good)));
  EXPECT_FALSE(spare.refactor(to_columns(singular)));
  const auto x = solve(active, {5.0, 10.0});
  const auto ax = good.mul(x);
  EXPECT_NEAR(ax[0], 5.0, 1e-12);
  EXPECT_NEAR(ax[1], 10.0, 1e-12);
  // The failed object factors again normally afterwards.
  ASSERT_TRUE(spare.refactor(to_columns(good)));
  EXPECT_EQ(solve(spare, {5.0, 10.0}), x);
}

}  // namespace
}  // namespace hslb::linalg

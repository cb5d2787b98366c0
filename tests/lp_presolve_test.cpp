#include "lp/presolve.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "lp/simplex.hpp"

namespace hslb::lp {
namespace {

Options presolve_on() {
  Options o;
  o.presolve = true;
  return o;
}

TEST(Presolve, FixedColumnIsSubstitutedOut) {
  Model m;
  const auto x = m.add_variable(3.0, 3.0, 1.0);   // fixed
  const auto y = m.add_variable(0.0, 10.0, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 5.0, kInf);

  const Presolve pre = Presolve::run(m);
  ASSERT_EQ(pre.status(), Presolve::Status::Reduced);
  EXPECT_GE(pre.cols_removed(), 1u);

  const Solution sol = solve(m, presolve_on());
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.x[x], 3.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 2.0, 1e-7);  // row forces y >= 5 - 3
  EXPECT_NEAR(sol.objective, 5.0, 1e-7);
  EXPECT_GE(sol.stats.presolve_cols_removed, 1u);
}

TEST(Presolve, SingletonRowBecomesABound) {
  Model m;
  const auto x = m.add_variable(0.0, 100.0, -1.0);
  m.add_constraint({{x, 2.0}}, -kInf, 12.0);  // x <= 6

  const Presolve pre = Presolve::run(m);
  EXPECT_GE(pre.rows_removed(), 1u);
  EXPECT_GE(pre.bounds_tightened(), 1u);

  const Solution sol = solve(m, presolve_on());
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.x[x], 6.0, 1e-7);
  // Dual recovery: the removed singleton row is the binding constraint, so
  // it must carry the column's reduced cost (rc = -1, a = 2 -> y = -0.5),
  // keeping c - A^T y stationary in the original space.
  ASSERT_EQ(sol.duals.size(), 1u);
  EXPECT_NEAR(sol.duals[0], -0.5, 1e-9);
}

TEST(Presolve, RedundantAndEmptyRowsAreDropped) {
  Model m;
  const auto x = m.add_variable(0.0, 1.0, 1.0);
  m.add_constraint({{x, 1.0}}, -kInf, 50.0);  // never binds
  m.add_constraint({{x, 1.0}}, -5.0, kInf); // never binds

  const Presolve pre = Presolve::run(m);
  ASSERT_EQ(pre.status(), Presolve::Status::Reduced);
  EXPECT_EQ(pre.rows_removed(), 2u);
  EXPECT_EQ(pre.reduced().num_rows(), 0u);

  const Solution sol = solve(m, presolve_on());
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 0.0, 1e-9);
}

TEST(Presolve, InfeasibleEmptyRowDetected) {
  Model m;
  const auto x = m.add_variable(2.0, 2.0, 0.0);
  m.add_constraint({{x, 1.0}}, 5.0, kInf);  // 2 >= 5

  const Presolve pre = Presolve::run(m);
  EXPECT_EQ(pre.status(), Presolve::Status::Infeasible);
  EXPECT_EQ(solve(m, presolve_on()).status, Status::Infeasible);
  EXPECT_EQ(solve(m).status, Status::Infeasible);  // agrees with no-presolve
}

TEST(Presolve, DominatedColumnPinnedAtBound) {
  Model m;
  // y only appears with positive coefficients in <=-rows and has c > 0:
  // every pull is downward, so presolve pins it at its lower bound.
  const auto x = m.add_variable(0.0, 4.0, -1.0);
  const auto y = m.add_variable(1.0, 9.0, 2.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, -kInf, 8.0);

  const Presolve pre = Presolve::run(m);
  EXPECT_GE(pre.cols_removed(), 1u);

  const Solution sol = solve(m, presolve_on());
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.x[y], 1.0, 1e-9);
  EXPECT_NEAR(sol.x[x], 4.0, 1e-7);
  EXPECT_NEAR(sol.objective, -2.0, 1e-7);
}

TEST(Presolve, ImpliedFreeColumnSingletonSubstituted) {
  Model m;
  // s appears only in the equality row and its huge box never binds, so the
  // pair (s, row) is substituted out; postsolve recomputes s from the row.
  const auto x = m.add_variable(0.0, 3.0, -1.0);
  const auto s = m.add_variable(-100.0, 100.0, 0.5);
  m.add_equality({{x, 1.0}, {s, 1.0}}, 5.0);

  const Presolve pre = Presolve::run(m);
  EXPECT_GE(pre.cols_removed(), 1u);
  EXPECT_GE(pre.rows_removed(), 1u);

  const Solution sol = solve(m, presolve_on());
  ASSERT_EQ(sol.status, Status::Optimal);
  // min -x + 0.5 s with s = 5 - x  ->  min -1.5 x + 2.5  ->  x = 3, s = 2.
  EXPECT_NEAR(sol.x[x], 3.0, 1e-7);
  EXPECT_NEAR(sol.x[s], 2.0, 1e-7);
  EXPECT_NEAR(sol.objective, -2.0, 1e-7);
  EXPECT_NEAR(sol.x[x] + sol.x[s], 5.0, 1e-9);  // row holds exactly
}

TEST(Presolve, ActivityBoundTighteningCounts) {
  Model m;
  // x + y >= 9 with y <= 5 implies x >= 4 (x's own bound is 0).
  const auto x = m.add_variable(0.0, 10.0, 1.0);
  const auto y = m.add_variable(0.0, 5.0, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 9.0, kInf);

  const Presolve pre = Presolve::run(m);
  ASSERT_EQ(pre.status(), Presolve::Status::Reduced);
  EXPECT_GE(pre.bounds_tightened(), 1u);

  const Solution on = solve(m, presolve_on());
  const Solution off = solve(m);
  ASSERT_EQ(on.status, Status::Optimal);
  EXPECT_NEAR(on.objective, off.objective, 1e-7);
}

Model random_bounded_lp(Rng& rng) {
  Model m;
  const int n = static_cast<int>(rng.uniform_int(4, 10));
  const int rows = static_cast<int>(rng.uniform_int(2, 6));
  for (int j = 0; j < n; ++j)
    m.add_variable(0.0, rng.uniform(2.0, 8.0), rng.uniform(-1.0, 1.0));
  for (int r = 0; r < rows; ++r) {
    std::vector<Coeff> coeffs;
    for (int j = 0; j < n; ++j)
      if (rng.uniform() < 0.7)
        coeffs.push_back({static_cast<std::size_t>(j), rng.uniform(-1.0, 1.0)});
    if (coeffs.empty()) coeffs.push_back({0, 1.0});
    m.add_constraint(std::move(coeffs), -kInf, rng.uniform(0.5, 4.0));
  }
  return m;
}

/// Branch-style mutation: fix a few variables, tighten a few boxes — the
/// shapes branch-and-bound hands to its cold re-solves.
Model branched_variant(const Model& base, Rng& rng) {
  Model m = base;
  const auto n = static_cast<long long>(base.num_cols());
  const int k = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < k; ++i) {
    const auto v = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const double mid =
        0.5 * (base.col_lower(v) + std::min(base.col_upper(v), 8.0));
    if (rng.uniform() < 0.5) {
      m.set_col_lower(v, std::floor(mid));
      m.set_col_upper(v, std::floor(mid));  // fixed column
    } else {
      m.set_col_upper(v, std::floor(mid) + 1.0);
    }
  }
  return m;
}

class PresolveParity : public ::testing::TestWithParam<int> {};

/// Presolve-on/off parity over the 60-seed random sweep: identical status,
/// identical objective, original-space feasibility, and a postsolved basis
/// that warm-starts the *original* model cleanly (the round-trip the B&B
/// tree relies on).
TEST_P(PresolveParity, MatchesPlainSolveAndRoundTripsBasis) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7717 + 11);
  const Model base = random_bounded_lp(rng);
  for (int variant = 0; variant < 3; ++variant) {
    const Model m = variant == 0 ? base : branched_variant(base, rng);
    const Solution off = solve(m);
    const Solution on = solve(m, presolve_on());
    ASSERT_EQ(on.status, off.status) << "seed " << GetParam();
    if (off.status != Status::Optimal) continue;

    const double scale = 1.0 + std::fabs(off.objective);
    EXPECT_NEAR(on.objective, off.objective, 1e-6 * scale)
        << "seed " << GetParam() << " variant " << variant;
    EXPECT_TRUE(m.is_feasible(on.x, 1e-6)) << "seed " << GetParam();

    // Basis round-trip: the postsolved basis must be a structurally valid
    // warm start for the original model — init_warm accepts it, the
    // factorization succeeds, and the re-solve lands on the same optimum.
    ASSERT_EQ(on.basis.cols.size(), m.num_cols());
    ASSERT_EQ(on.basis.rows.size(), m.num_rows());
    Options warm;
    warm.warm_start = &on.basis;
    const Solution re = solve(m, warm);
    ASSERT_EQ(re.status, Status::Optimal) << "seed " << GetParam();
    EXPECT_NEAR(re.objective, off.objective, 1e-6 * scale)
        << "seed " << GetParam();
    EXPECT_TRUE(re.warm_started) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PresolveParity, ::testing::Range(0, 60));

/// Stationarity of the recovered duals on models made of singleton rows —
/// the one removal kind whose dual is reconstructed (reduced cost moved
/// onto the binding row). Checks c - A^T y is a valid reduced-cost vector.
TEST(Presolve, SingletonRowDualsAreStationary) {
  Model m;
  const auto x = m.add_variable(0.0, 100.0, 3.0);
  const auto y = m.add_variable(0.0, 100.0, -5.0);
  m.add_constraint({{x, 1.0}}, -kInf, 4.0);
  m.add_constraint({{y, 2.0}}, -kInf, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, -kInf, 18.0);

  const Solution sol = solve(m, presolve_on());
  ASSERT_EQ(sol.status, Status::Optimal);
  const Solution plain = solve(m);
  EXPECT_NEAR(sol.objective, plain.objective, 1e-7);

  for (std::size_t j = 0; j < m.num_cols(); ++j) {
    double rc = m.objective(j);
    for (const ColEntry& e : m.col(j)) rc -= e.value * sol.duals[e.index];
    const bool at_lb = std::fabs(sol.x[j] - m.col_lower(j)) < 1e-7;
    const bool at_ub = std::fabs(sol.x[j] - m.col_upper(j)) < 1e-7;
    if (!at_lb && !at_ub) {
      EXPECT_NEAR(rc, 0.0, 1e-7) << "col " << j;  // basic: zero reduced cost
    } else if (at_lb && !at_ub) {
      EXPECT_GE(rc, -1e-7) << "col " << j;
    } else if (at_ub && !at_lb) {
      EXPECT_LE(rc, 1e-7) << "col " << j;
    }
  }
}

}  // namespace
}  // namespace hslb::lp

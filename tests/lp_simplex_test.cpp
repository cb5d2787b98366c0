#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.hpp"

namespace hslb::lp {
namespace {

// ---------------------------------------------------------------------------
// Hand-constructed instances with known optima.
// ---------------------------------------------------------------------------

TEST(Simplex, BoxOnlyMinimization) {
  Model m;
  m.add_variable(1.0, 5.0, 2.0);    // min at lb
  m.add_variable(-3.0, 4.0, -1.0);  // min at ub
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 4.0, 1e-9);
  EXPECT_NEAR(sol.objective, 2.0 - 4.0, 1e-9);
}

TEST(Simplex, ClassicTwoVariable) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
  // (Dantzig's classic; optimum x=2, y=6, obj 36)
  Model m;
  const auto x = m.add_variable(0.0, kInf, -3.0);
  const auto y = m.add_variable(0.0, kInf, -5.0);
  m.add_constraint({{x, 1.0}}, -kInf, 4.0);
  m.add_constraint({{y, 2.0}}, -kInf, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, -kInf, 18.0);
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -36.0, 1e-8);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-8);
  EXPECT_NEAR(sol.x[y], 6.0, 1e-8);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y s.t. x + y = 10, 0 <= x <= 6, 0 <= y <= 8  => x=6, y=4.
  Model m;
  const auto x = m.add_variable(0.0, 6.0, 1.0);
  const auto y = m.add_variable(0.0, 8.0, 2.0);
  m.add_equality({{x, 1.0}, {y, 1.0}}, 10.0);
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.x[x], 6.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 4.0, 1e-9);
  EXPECT_NEAR(sol.objective, 14.0, 1e-9);
}

TEST(Simplex, RangeConstraintBothSidesActive) {
  // min x s.t. 2 <= x + y <= 3, y <= 1, x,y >= 0 => x = 1 (y = 1).
  Model m;
  const auto x = m.add_variable(0.0, kInf, 1.0);
  const auto y = m.add_variable(0.0, 1.0, 0.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 2.0, 3.0);
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 1.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  Model m;
  const auto x = m.add_variable(0.0, 1.0, 1.0);
  m.add_constraint({{x, 1.0}}, 2.0, 3.0);  // x in [0,1] cannot reach 2
  EXPECT_EQ(solve(m).status, Status::Infeasible);
}

TEST(Simplex, DetectsInfeasibleConflictingRows) {
  Model m;
  const auto x = m.add_variable(-kInf, kInf, 0.0);
  const auto y = m.add_variable(-kInf, kInf, 0.0);
  m.add_equality({{x, 1.0}, {y, 1.0}}, 1.0);
  m.add_equality({{x, 1.0}, {y, 1.0}}, 2.0);
  EXPECT_EQ(solve(m).status, Status::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  const auto x = m.add_variable(0.0, kInf, -1.0);  // min -x, x unbounded above
  const auto y = m.add_variable(0.0, 1.0, 0.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, 0.0, kInf);  // x >= y, harmless
  EXPECT_EQ(solve(m).status, Status::Unbounded);
}

TEST(Simplex, FreeVariableSolves) {
  // min |free| style: min x s.t. x >= -7 via row (x free as a column).
  Model m;
  const auto x = m.add_variable(-kInf, kInf, 1.0);
  m.add_constraint({{x, 1.0}}, -7.0, kInf);
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.x[x], -7.0, 1e-9);
}

TEST(Simplex, FixedVariable) {
  Model m;
  const auto x = m.add_variable(3.0, 3.0, 5.0);
  const auto y = m.add_variable(0.0, 10.0, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 5.0, kInf);
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.x[x], 3.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 2.0, 1e-9);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Multiple constraints meeting at the optimum (degenerate).
  Model m;
  const auto x = m.add_variable(0.0, kInf, -1.0);
  const auto y = m.add_variable(0.0, kInf, -1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, -kInf, 2.0);
  m.add_constraint({{x, 1.0}}, -kInf, 1.0);
  m.add_constraint({{y, 1.0}}, -kInf, 1.0);
  m.add_constraint({{x, 2.0}, {y, 2.0}}, -kInf, 4.0);  // redundant at optimum
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -2.0, 1e-9);
}

TEST(Simplex, EmptyModelNoRows) {
  Model m;
  m.add_variable(2.0, 4.0, 1.0);
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-12);
}

TEST(Simplex, DualsSatisfyStrongDuality) {
  // For the classic instance, primal obj == dual obj (b^T y with care for
  // ranges: here all rows are <= with finite uppers).
  Model m;
  const auto x = m.add_variable(0.0, kInf, -3.0);
  const auto y = m.add_variable(0.0, kInf, -5.0);
  m.add_constraint({{x, 1.0}}, -kInf, 4.0);
  m.add_constraint({{y, 2.0}}, -kInf, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, -kInf, 18.0);
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  ASSERT_EQ(sol.duals.size(), 3u);
  const double dual_obj =
      4.0 * sol.duals[0] + 12.0 * sol.duals[1] + 18.0 * sol.duals[2];
  EXPECT_NEAR(dual_obj, sol.objective, 1e-7);
}

TEST(Simplex, ComplementarySlacknessOnRandomLps) {
  // For optimal LPs: a row with nonzero dual must be tight at a bound.
  Rng rng(31337);
  int checked = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Model m;
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    for (int j = 0; j < n; ++j)
      m.add_variable(0.0, rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0));
    const int rows = static_cast<int>(rng.uniform_int(1, 4));
    for (int r = 0; r < rows; ++r) {
      std::vector<Coeff> coeffs;
      for (int j = 0; j < n; ++j)
        coeffs.push_back({static_cast<std::size_t>(j), rng.uniform(-1.0, 1.0)});
      m.add_constraint(std::move(coeffs), -kInf, rng.uniform(0.0, 2.0));
    }
    const auto sol = solve(m);
    if (sol.status != Status::Optimal) continue;
    for (std::size_t r = 0; r < m.num_rows(); ++r) {
      if (std::fabs(sol.duals[r]) < 1e-7) continue;
      const double act = m.row_activity(r, sol.x);
      EXPECT_NEAR(act, m.row_upper(r), 1e-6)
          << "dual " << sol.duals[r] << " on slack row " << r;
      ++checked;
    }
  }
  EXPECT_GT(checked, 5);  // the property must actually have been exercised
}

// ---------------------------------------------------------------------------
// Property test: random 2-variable LPs vs. brute-force vertex enumeration.
// ---------------------------------------------------------------------------

struct Random2dLp {
  Model model;
  // raw data for the enumerator
  std::vector<std::array<double, 2>> rows;  // coefficients
  std::vector<double> ub;                   // a.x <= ub
  std::array<double, 2> lo{}, hi{}, cost{};
};

Random2dLp make_random_lp(Rng& rng) {
  Random2dLp lp;
  lp.lo = {rng.uniform(-2.0, 0.0), rng.uniform(-2.0, 0.0)};
  lp.hi = {lp.lo[0] + rng.uniform(0.5, 4.0), lp.lo[1] + rng.uniform(0.5, 4.0)};
  lp.cost = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
  const auto x = lp.model.add_variable(lp.lo[0], lp.hi[0], lp.cost[0]);
  const auto y = lp.model.add_variable(lp.lo[1], lp.hi[1], lp.cost[1]);
  const int nrows = static_cast<int>(rng.uniform_int(1, 4));
  for (int r = 0; r < nrows; ++r) {
    std::array<double, 2> a{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    const double ub = rng.uniform(-0.5, 2.0);
    lp.rows.push_back(a);
    lp.ub.push_back(ub);
    lp.model.add_constraint({{x, a[0]}, {y, a[1]}}, -kInf, ub);
  }
  return lp;
}

/// Brute force: enumerate all intersections of active-constraint pairs
/// (rows and box edges), keep feasible ones, take the best objective.
std::optional<double> brute_force_2d(const Random2dLp& lp) {
  std::vector<std::array<double, 3>> lines;  // a0 x + a1 y = b
  for (std::size_t r = 0; r < lp.rows.size(); ++r)
    lines.push_back({lp.rows[r][0], lp.rows[r][1], lp.ub[r]});
  lines.push_back({1.0, 0.0, lp.lo[0]});
  lines.push_back({1.0, 0.0, lp.hi[0]});
  lines.push_back({0.0, 1.0, lp.lo[1]});
  lines.push_back({0.0, 1.0, lp.hi[1]});

  auto feasible = [&](double px, double py) {
    const double tol = 1e-7;
    if (px < lp.lo[0] - tol || px > lp.hi[0] + tol) return false;
    if (py < lp.lo[1] - tol || py > lp.hi[1] + tol) return false;
    for (std::size_t r = 0; r < lp.rows.size(); ++r)
      if (lp.rows[r][0] * px + lp.rows[r][1] * py > lp.ub[r] + tol) return false;
    return true;
  };

  std::optional<double> best;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      const double det = lines[i][0] * lines[j][1] - lines[i][1] * lines[j][0];
      if (std::fabs(det) < 1e-10) continue;
      const double px = (lines[i][2] * lines[j][1] - lines[i][1] * lines[j][2]) / det;
      const double py = (lines[i][0] * lines[j][2] - lines[i][2] * lines[j][0]) / det;
      if (!feasible(px, py)) continue;
      const double obj = lp.cost[0] * px + lp.cost[1] * py;
      if (!best || obj < *best) best = obj;
    }
  }
  return best;
}

class SimplexRandom2d : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandom2d, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const auto lp = make_random_lp(rng);
  const auto expected = brute_force_2d(lp);
  const auto sol = solve(lp.model);
  if (!expected) {
    EXPECT_EQ(sol.status, Status::Infeasible);
  } else {
    ASSERT_EQ(sol.status, Status::Optimal)
        << "brute force found optimum " << *expected;
    EXPECT_NEAR(sol.objective, *expected, 1e-6);
    EXPECT_TRUE(lp.model.is_feasible(sol.x, 1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexRandom2d, ::testing::Range(0, 200));

// ---------------------------------------------------------------------------
// Larger random LPs: verify feasibility + optimality conditions only.
// ---------------------------------------------------------------------------

class SimplexRandomWide : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomWide, SolutionFeasibleWhenOptimal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  Model m;
  const int n = static_cast<int>(rng.uniform_int(3, 12));
  const int rows = static_cast<int>(rng.uniform_int(1, 8));
  for (int j = 0; j < n; ++j) {
    const double lo = rng.uniform(-1.0, 0.5);
    m.add_variable(lo, lo + rng.uniform(0.1, 3.0), rng.uniform(-1.0, 1.0));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<Coeff> coeffs;
    for (int j = 0; j < n; ++j) {
      if (rng.uniform() < 0.6) coeffs.push_back({static_cast<std::size_t>(j),
                                                 rng.uniform(-1.0, 1.0)});
    }
    if (coeffs.empty()) coeffs.push_back({0, 1.0});
    const double width = rng.uniform(0.0, 2.0);
    const double mid = rng.uniform(-1.0, 1.0);
    m.add_constraint(std::move(coeffs), mid - width, mid + width);
  }
  const auto sol = solve(m);
  // Bounded box => never unbounded.
  EXPECT_NE(sol.status, Status::Unbounded);
  if (sol.status == Status::Optimal) {
    EXPECT_TRUE(m.is_feasible(sol.x, 1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexRandomWide, ::testing::Range(0, 100));

// ---------------------------------------------------------------------------
// Warm-start property: a warm re-solve may take a different pivot path but
// must reach the same status and objective as a cold solve of the same model.
// The perturbations mirror what the branch-and-bound does to a parent LP:
// tightened variable bounds (branching) and appended rows (OA cuts).
// ---------------------------------------------------------------------------

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

void expect_warm_matches_cold(const Model& child, const Basis& parent_basis,
                              int trial, int* warm_used, int* solved) {
  const Solution cold = solve(child);
  Options warm_opt;
  warm_opt.warm_start = &parent_basis;
  const Solution warm = solve(child, warm_opt);
  ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
  if (warm.warm_started) ++*warm_used;
  if (cold.status != Status::Optimal) return;
  ++*solved;
  const double scale = 1.0 + std::fabs(cold.objective);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6 * scale)
      << "trial " << trial;
  EXPECT_TRUE(child.is_feasible(warm.x, 1e-6)) << "trial " << trial;
}

class SimplexWarmBranch : public ::testing::TestWithParam<int> {};

TEST_P(SimplexWarmBranch, MatchesColdAfterBoundTightenings) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  const Model parent = random_bounded_lp(rng);
  const Solution psol = solve(parent);
  if (psol.status != Status::Optimal) return;

  int warm_used = 0, solved = 0;
  for (int variant = 0; variant < 4; ++variant) {
    Model child = parent;
    // Tighten 1-3 variables around the parent optimum, branch-style. Some
    // variants go (detectably) infeasible — those exercise the status
    // agreement, not the warm pivot path.
    const int k = static_cast<int>(rng.uniform_int(1, 3));
    for (int j = 0; j < k; ++j) {
      const auto v = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<long long>(parent.num_cols()) - 1));
      if (rng.uniform() < 0.5)
        child.set_col_upper(v, std::floor(psol.x[v]));
      else
        child.set_col_lower(v, std::ceil(psol.x[v] + 0.5));
    }
    expect_warm_matches_cold(child, psol.basis, GetParam(), &warm_used,
                             &solved);
  }
  if (solved > 0) {
    EXPECT_GT(warm_used, 0);  // the warm path must actually be exercised
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexWarmBranch, ::testing::Range(0, 50));

class SimplexWarmCuts : public ::testing::TestWithParam<int> {};

TEST_P(SimplexWarmCuts, MatchesColdAfterAppendedRows) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7673 + 11);
  const Model parent = random_bounded_lp(rng);
  const Solution psol = solve(parent);
  if (psol.status != Status::Optimal) return;

  Model child = parent;
  // Append 1-3 rows, one of which cuts off the parent optimum (the OA-cut
  // pattern: the appended row's slack starts basic and dual-infeasible).
  const int k = static_cast<int>(rng.uniform_int(1, 3));
  for (int r = 0; r < k; ++r) {
    std::vector<Coeff> coeffs;
    double activity = 0.0;
    for (std::size_t j = 0; j < parent.num_cols(); ++j) {
      if (rng.uniform() < 0.6) {
        const double a = rng.uniform(-1.0, 1.0);
        coeffs.push_back({j, a});
        activity += a * psol.x[j];
      }
    }
    if (coeffs.empty()) coeffs.push_back({0, 1.0});
    const double rhs =
        r == 0 ? activity - rng.uniform(0.05, 0.5)  // violated at optimum
               : activity + rng.uniform(0.0, 1.0);
    child.add_constraint(std::move(coeffs), -kInf, rhs);
  }
  int warm_used = 0;
  { int solved = 0; expect_warm_matches_cold(child, psol.basis, GetParam(), &warm_used, &solved); }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexWarmCuts, ::testing::Range(0, 50));

TEST(Simplex, WarmResolveOfUnchangedModelTakesNoPivots) {
  Rng rng(99);
  const Model m = random_bounded_lp(rng);
  const Solution cold = solve(m);
  ASSERT_EQ(cold.status, Status::Optimal);
  Options opt;
  opt.warm_start = &cold.basis;
  const Solution warm = solve(m, opt);
  ASSERT_EQ(warm.status, Status::Optimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.iterations, 0u);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-12);
}

// ---------------------------------------------------------------------------
// Sparse/dense parity: force_dense swaps the factorization and eta storage
// for dense-equivalent kernels but leaves pricing untouched, so both modes
// must walk the same pivot path and land on the identical vertex.
// ---------------------------------------------------------------------------

class SimplexSparseDenseParity : public ::testing::TestWithParam<int> {};

TEST_P(SimplexSparseDenseParity, IdenticalObjectiveBasisAndDuals) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9551 + 17);
  const Model m = random_bounded_lp(rng);
  Options dense_opt;
  dense_opt.force_dense = true;
  const Solution sparse = solve(m);
  const Solution dense = solve(m, dense_opt);
  ASSERT_EQ(sparse.status, dense.status);
  if (sparse.status != Status::Optimal) return;

  const double scale = 1.0 + std::fabs(dense.objective);
  EXPECT_NEAR(sparse.objective, dense.objective, 1e-9 * scale);
  EXPECT_EQ(sparse.iterations, dense.iterations);
  ASSERT_EQ(sparse.basis.cols.size(), dense.basis.cols.size());
  ASSERT_EQ(sparse.basis.rows.size(), dense.basis.rows.size());
  for (std::size_t j = 0; j < sparse.basis.cols.size(); ++j)
    EXPECT_EQ(sparse.basis.cols[j], dense.basis.cols[j]) << "col " << j;
  for (std::size_t r = 0; r < sparse.basis.rows.size(); ++r)
    EXPECT_EQ(sparse.basis.rows[r], dense.basis.rows[r]) << "row " << r;
  ASSERT_EQ(sparse.duals.size(), dense.duals.size());
  for (std::size_t r = 0; r < sparse.duals.size(); ++r)
    EXPECT_NEAR(sparse.duals[r], dense.duals[r], 1e-7 * scale) << "row " << r;
  for (std::size_t j = 0; j < sparse.x.size(); ++j)
    EXPECT_NEAR(sparse.x[j], dense.x[j], 1e-7 * scale) << "col " << j;

  // The counters must reflect the mode: dense etas store every off-pivot
  // entry, sparse ones only nonzeros — never more than the dense count.
  if (dense.stats.pivots > 0) {
    EXPECT_EQ(dense.stats.eta_nnz, dense.stats.eta_dense_nnz);
  }
  EXPECT_LE(sparse.stats.eta_nnz, sparse.stats.eta_dense_nnz);
  // Same invariant for the kernel-work counters: dense mode bills itself
  // the dense cost exactly; sparse kernels never do more work than that.
  EXPECT_EQ(dense.stats.kernel_flops, dense.stats.kernel_dense_flops);
  EXPECT_LE(sparse.stats.kernel_flops, sparse.stats.kernel_dense_flops);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexSparseDenseParity,
                         ::testing::Range(0, 60));

// ---------------------------------------------------------------------------
// Basis-update parity: the Forrest-Tomlin scheme (default) and the
// product-form eta baseline maintain the same basis inverse, so under
// identical pricing they must walk the same pivot path to the same vertex.
// ---------------------------------------------------------------------------

class SimplexBasisUpdateParity : public ::testing::TestWithParam<int> {};

TEST_P(SimplexBasisUpdateParity, FtAndEtaWalkTheSamePath) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9551 + 17);
  const Model m = random_bounded_lp(rng);
  Options eta_opt;
  eta_opt.basis_update = BasisUpdate::ProductFormEta;
  const Solution ft = solve(m);
  const Solution eta = solve(m, eta_opt);
  ASSERT_EQ(ft.status, eta.status);
  if (ft.status != Status::Optimal) return;

  const double scale = 1.0 + std::fabs(eta.objective);
  EXPECT_NEAR(ft.objective, eta.objective, 1e-9 * scale);
  EXPECT_EQ(ft.iterations, eta.iterations);
  ASSERT_EQ(ft.basis.cols.size(), eta.basis.cols.size());
  for (std::size_t j = 0; j < ft.basis.cols.size(); ++j)
    EXPECT_EQ(ft.basis.cols[j], eta.basis.cols[j]) << "col " << j;
  for (std::size_t r = 0; r < ft.basis.rows.size(); ++r)
    EXPECT_EQ(ft.basis.rows[r], eta.basis.rows[r]) << "row " << r;
  for (std::size_t j = 0; j < ft.x.size(); ++j)
    EXPECT_NEAR(ft.x[j], eta.x[j], 1e-7 * scale) << "col " << j;

  // Each scheme's counters stay in its own lane.
  EXPECT_EQ(ft.stats.eta_nnz, 0u);
  EXPECT_EQ(eta.stats.ft_updates, 0u);
  if (ft.stats.pivots > ft.stats.refactor_drift_hits) {
    EXPECT_GT(ft.stats.ft_updates, 0u);
  }
  // FT solves never bill more kernel work than the dense equivalent.
  EXPECT_LE(ft.stats.kernel_flops, ft.stats.kernel_dense_flops);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexBasisUpdateParity,
                         ::testing::Range(0, 60));

TEST(Simplex, ForrestTomlinReportsUpdateFillAndTriggers) {
  Rng rng(4242);
  const Model m = random_bounded_lp(rng);
  Options opt;
  opt.refactor_interval = 1;  // force the backstop to fire on every update
  const Solution sol = solve(m, opt);
  ASSERT_EQ(sol.status, Status::Optimal);
  ASSERT_GT(sol.stats.pivots, 1u);
  EXPECT_GT(sol.stats.ft_updates, 0u);
  EXPECT_GT(sol.stats.refactor_interval_hits, 0u);
  // Every refactorization beyond the initial factor has a recorded reason.
  EXPECT_GE(sol.stats.refactorizations,
            sol.stats.refactor_interval_hits + sol.stats.refactor_fill_hits);
}

// ---------------------------------------------------------------------------
// Dual-simplex property: a warm re-solve of a bound-change-only child (the
// branch-and-bound's hot path) repairs primal feasibility entirely inside
// the dual phase — primal phase 1 must never run.
// ---------------------------------------------------------------------------

class SimplexDualOnlyWarm : public ::testing::TestWithParam<int> {};

TEST_P(SimplexDualOnlyWarm, BoundChangeChildrenSkipPrimalPhase1) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  const Model parent = random_bounded_lp(rng);
  const Solution psol = solve(parent);
  if (psol.status != Status::Optimal) return;

  for (int variant = 0; variant < 4; ++variant) {
    Model child = parent;
    const int k = static_cast<int>(rng.uniform_int(1, 3));
    for (int j = 0; j < k; ++j) {
      const auto v = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<long long>(parent.num_cols()) - 1));
      if (rng.uniform() < 0.5)
        child.set_col_upper(v, std::floor(psol.x[v]));
      else
        child.set_col_lower(v, std::ceil(psol.x[v] + 0.5));
    }
    Options warm_opt;
    warm_opt.warm_start = &psol.basis;
    const Solution warm = solve(child, warm_opt);
    if (!warm.warm_started || warm.status != Status::Optimal) continue;
    // The dual repair + primal cleanup never needed artificial variables.
    EXPECT_EQ(warm.stats.phase1_pivots, 0u) << "variant " << variant;
    EXPECT_EQ(warm.stats.dual_phase1_avoided, 1u) << "variant " << variant;
    // And every pivot is attributed to exactly one of the two phases seen.
    EXPECT_GE(warm.stats.pivots, warm.stats.dual_pivots);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexDualOnlyWarm, ::testing::Range(0, 50));

TEST(Simplex, SparseStatsReportEtaCompression) {
  Rng rng(4242);
  const Model m = random_bounded_lp(rng);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  ASSERT_GT(sol.stats.pivots, 0u);
  EXPECT_GT(sol.stats.refactorizations, 0u);
  EXPECT_GT(sol.stats.basis_nnz, 0u);
  EXPECT_GE(sol.stats.eta_compression(), 1.0);
  EXPECT_GE(sol.stats.flop_reduction(), 1.0);
  EXPECT_GT(sol.stats.kernel_flops, 0u);
}

TEST(Simplex, CrossedBoundsAreInfeasible) {
  // Branching can empty a variable's box; the solver must report it rather
  // than "solve" the impossible model (warm or cold).
  Model m;
  const auto x = m.add_variable(0.0, 5.0, 1.0);
  m.add_constraint({{x, 1.0}}, -kInf, 4.0);
  const Solution parent = solve(m);
  ASSERT_EQ(parent.status, Status::Optimal);
  Model child = m;
  child.set_col_lower(x, 3.0);
  child.set_col_upper(x, 2.0);
  EXPECT_EQ(solve(child).status, Status::Infeasible);
  Options warm_opt;
  warm_opt.warm_start = &parent.basis;
  EXPECT_EQ(solve(child, warm_opt).status, Status::Infeasible);
}

}  // namespace
}  // namespace hslb::lp

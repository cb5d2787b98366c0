#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "lp/certify.hpp"

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
// Larger random LPs: every optimal answer must carry a certificate.
// ---------------------------------------------------------------------------

/// Tolerance of every certificate check below: the random LPs have O(1)
/// coefficients, bounds and costs.
constexpr double kCertTol = 1e-9;

void expect_certified(const Model& m, const Solution& sol, int trial) {
  const Certificate cert = certify(m, sol);
  EXPECT_TRUE(cert.holds(kCertTol))
      << "trial " << trial << ": primal residual " << cert.primal_residual
      << ", dual violation " << cert.dual_violation << ", gap " << cert.gap;
}

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
  if (sol.status == Status::Optimal) expect_certified(m, sol, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexRandomWide, ::testing::Range(0, 100));

// ---------------------------------------------------------------------------
// Warm-start property: a warm re-solve may take a different pivot path but
// must reach the same status and objective as a cold solve of the same model.
// The perturbations mirror what the branch-and-bound does to a parent LP:
// tightened variable bounds (branching) and appended rows (OA cuts).
// ---------------------------------------------------------------------------

Model random_bounded_lp(Rng& rng, int max_cols = 10, int max_rows = 6) {
  Model m;
  const int n = static_cast<int>(rng.uniform_int(4, max_cols));
  const int rows = static_cast<int>(rng.uniform_int(2, max_rows));
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
  expect_certified(child, warm, trial);
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
// Certificate sweep: every optimal solve of the random bounded LPs is
// checked from the model alone, and the kernel counters keep their
// invariants.
// ---------------------------------------------------------------------------

class SimplexCertifiedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimplexCertifiedSweep, OptimalSolvesCertifyAndCountersHold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9551 + 17);
  const Model m = random_bounded_lp(rng);
  const Solution sol = solve(m);
  if (sol.status != Status::Optimal) return;
  expect_certified(m, sol, GetParam());
  // Sparse kernels never bill more work than the dense equivalent, and a
  // solve whose pivots outnumber its drift refactors records FT updates.
  EXPECT_LE(sol.stats.kernel_flops, sol.stats.kernel_dense_flops);
  if (sol.stats.pivots > sol.stats.refactor_drift_hits) {
    EXPECT_GT(sol.stats.ft_updates, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexCertifiedSweep,
                         ::testing::Range(0, 60));

// ---------------------------------------------------------------------------
// Engine reuse: one lp::Solver carried through models of growing and
// shrinking size answers every solve exactly as a fresh lp::solve does.
// ---------------------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) { return same_bits(x, y); });
}

void expect_identical(const Solution& got, const Solution& want,
                      const std::string& what) {
  EXPECT_EQ(got.status, want.status) << what;
  EXPECT_TRUE(same_bits(got.objective, want.objective)) << what;
  EXPECT_TRUE(same_bits(got.x, want.x)) << what;
  EXPECT_TRUE(same_bits(got.duals, want.duals)) << what;
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_TRUE(same_bits(got.max_primal_violation, want.max_primal_violation))
      << what;
  EXPECT_TRUE(got.basis.cols == want.basis.cols) << what;
  EXPECT_TRUE(got.basis.rows == want.basis.rows) << what;
  EXPECT_EQ(got.warm_started, want.warm_started) << what;
  const SolveStats& g = got.stats;
  const SolveStats& w = want.stats;
  const std::array<std::pair<std::size_t, std::size_t>, 17> fields{{
      {g.pivots, w.pivots},
      {g.kernel_flops, w.kernel_flops},
      {g.kernel_dense_flops, w.kernel_dense_flops},
      {g.refactorizations, w.refactorizations},
      {g.basis_nnz, w.basis_nnz},
      {g.lu_fill, w.lu_fill},
      {g.ft_updates, w.ft_updates},
      {g.ft_fill_nnz, w.ft_fill_nnz},
      {g.refactor_interval_hits, w.refactor_interval_hits},
      {g.refactor_fill_hits, w.refactor_fill_hits},
      {g.refactor_drift_hits, w.refactor_drift_hits},
      {g.dual_pivots, w.dual_pivots},
      {g.phase1_pivots, w.phase1_pivots},
      {g.dual_phase1_avoided, w.dual_phase1_avoided},
      {g.presolve_rows_removed, w.presolve_rows_removed},
      {g.presolve_cols_removed, w.presolve_cols_removed},
      {g.presolve_bounds_tightened, w.presolve_bounds_tightened},
  }};
  for (std::size_t i = 0; i < fields.size(); ++i)
    EXPECT_EQ(fields[i].first, fields[i].second)
        << what << ", stats field " << i;
}

/// One solve: a model, its options and the warm-start basis (none if empty).
struct ReuseJob {
  std::string name;
  Model model;
  Options options;
  Basis basis;
};

/// The certified sweep's 60 LPs, the warm-branch and warm-cut sequences
/// (each warm child also solved cold), larger LPs cold and warm, an
/// infeasible and an unbounded model, and presolved cold solves.
std::vector<ReuseJob> reuse_jobs() {
  std::vector<ReuseJob> jobs;
  for (int p = 0; p < 60; ++p) {
    Rng rng(static_cast<std::uint64_t>(p) * 9551 + 17);
    jobs.push_back(
        {"certified " + std::to_string(p), random_bounded_lp(rng), {}, {}});
  }
  for (int p = 0; p < 50; ++p) {
    Rng rng(static_cast<std::uint64_t>(p) * 6151 + 3);
    const Model parent = random_bounded_lp(rng);
    const Solution psol = solve(parent);
    if (psol.status != Status::Optimal) continue;
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
      const std::string name = "branch " + std::to_string(p) + "." +
                               std::to_string(variant);
      jobs.push_back({name + " warm", child, {}, psol.basis});
      jobs.push_back({name + " cold", std::move(child), {}, {}});
    }
  }
  for (int p = 0; p < 50; ++p) {
    Rng rng(static_cast<std::uint64_t>(p) * 7673 + 11);
    const Model parent = random_bounded_lp(rng);
    const Solution psol = solve(parent);
    if (psol.status != Status::Optimal) continue;
    Model child = parent;
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
      const double rhs = r == 0 ? activity - rng.uniform(0.05, 0.5)
                                : activity + rng.uniform(0.0, 1.0);
      child.add_constraint(std::move(coeffs), -kInf, rhs);
    }
    const std::string name = "cuts " + std::to_string(p);
    jobs.push_back({name + " warm", child, {}, psol.basis});
    jobs.push_back({name + " cold", std::move(child), {}, {}});
  }
  for (int p = 0; p < 6; ++p) {
    Rng rng(static_cast<std::uint64_t>(p) * 131 + 5);
    Model big = random_bounded_lp(rng, 60, 40);
    const Solution bsol = solve(big);
    const std::string name = "large " + std::to_string(p);
    jobs.push_back({name, big, {}, {}});
    big.set_col_upper(0, std::floor(bsol.x[0] * 0.5));
    jobs.push_back({name + " branched warm", std::move(big), {}, bsol.basis});
  }
  Options presolve;
  presolve.presolve = true;
  for (int p = 0; p < 4; ++p) {
    Rng rng(static_cast<std::uint64_t>(p) * 977 + 1);
    Model m = random_bounded_lp(rng, 30, 20);
    m.set_col_upper(1, m.col_lower(1));  // a fixed column presolve removes
    m.add_constraint({{2, 1.0}}, -kInf, 1.5);  // a singleton row
    jobs.push_back(
        {"presolved " + std::to_string(p), std::move(m), presolve, {}});
  }
  Model infeasible;
  const auto x = infeasible.add_variable(0.0, 1.0, 1.0);
  infeasible.add_constraint({{x, 1.0}}, 2.0, kInf);
  jobs.push_back({"infeasible", std::move(infeasible), {}, {}});
  Model unbounded;
  const auto u = unbounded.add_variable(0.0, kInf, -1.0);
  const auto v = unbounded.add_variable(0.0, kInf, -1.0);
  unbounded.add_constraint({{u, 1.0}, {v, -1.0}}, -kInf, 1.0);
  jobs.push_back({"unbounded", std::move(unbounded), {}, {}});
  return jobs;
}

TEST(SimplexEngineReuse, EverySolveMatchesAFreshSolveBitForBit) {
  std::vector<ReuseJob> jobs = reuse_jobs();
  // Seeded shuffle: sizes grow and shrink, warm follows cold at random.
  Rng rng(2026);
  for (std::size_t i = jobs.size() - 1; i > 0; --i)
    std::swap(jobs[i], jobs[static_cast<std::size_t>(
                           rng.uniform_int(0, static_cast<long long>(i)))]);
  Solver engine;
  std::size_t warm = 0, presolved = 0, infeasible = 0, unbounded = 0;
  for (const ReuseJob& job : jobs) {
    Options opt = job.options;
    if (!job.basis.empty()) opt.warm_start = &job.basis;
    const Solution fresh = solve(job.model, opt);
    const Solution reused = engine.solve(job.model, opt);
    expect_identical(reused, fresh, job.name);
    warm += reused.warm_started ? 1 : 0;
    presolved += reused.stats.presolve_cols_removed > 0 ? 1 : 0;
    infeasible += reused.status == Status::Infeasible ? 1 : 0;
    unbounded += reused.status == Status::Unbounded ? 1 : 0;
  }
  EXPECT_EQ(jobs.size(), 578u);
  EXPECT_GT(warm, 150u);
  EXPECT_EQ(presolved, 4u);
  EXPECT_GT(infeasible, 0u);
  EXPECT_EQ(unbounded, 1u);
}

TEST(Certify, FlagsPlantedWrongAnswers) {
  // min x + 2y  s.t.  x + y >= 1,  x, y in [0, 2]: x = 1 on the active
  // row (dual 1), y = 0 at its lower bound (reduced cost 1).
  Model m;
  const auto x = m.add_variable(0.0, 2.0, 1.0);
  const auto y = m.add_variable(0.0, 2.0, 2.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 1.0, kInf);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  ASSERT_TRUE(certify(m, sol).holds(kCertTol));

  Solution flipped = sol;  // the active row's dual with the wrong sign
  flipped.duals[0] = -flipped.duals[0];
  EXPECT_GT(certify(m, flipped).dual_violation, 0.5);
  EXPECT_LT(certify(m, flipped).primal_residual, kCertTol);

  Solution moved = sol;  // y off its active lower bound, still feasible
  moved.x[y] = 0.5;
  const Certificate moved_cert = certify(m, moved);
  EXPECT_LT(moved_cert.primal_residual, kCertTol);
  EXPECT_GT(moved_cert.dual_violation, 0.5);
  EXPECT_GT(moved_cert.gap, 0.1);

  Solution infeasible = sol;  // the row x + y >= 1 broken
  infeasible.x[x] = 0.25;
  EXPECT_NEAR(certify(m, infeasible).primal_residual, 0.75, 1e-12);
  EXPECT_FALSE(certify(m, infeasible).holds(kCertTol));
}

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

TEST(Simplex, SparseStatsReportKernelWork) {
  Rng rng(4242);
  const Model m = random_bounded_lp(rng);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  ASSERT_GT(sol.stats.pivots, 0u);
  EXPECT_GT(sol.stats.refactorizations, 0u);
  EXPECT_GT(sol.stats.basis_nnz, 0u);
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

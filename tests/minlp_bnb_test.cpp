#include "minlp/bnb.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "minlp/kelley.hpp"

namespace hslb::minlp {
namespace {

/// Convex separable quadratic (x - t)^2 <= s epigraph helper used to build
/// random convex MINLPs with known structure.
NonlinearConstraint quad_above(std::size_t x, std::size_t t, double center,
                               double weight) {
  // weight*(x-center)^2 - t <= 0
  NonlinearConstraint c;
  c.vars = {x, t};
  c.value = [x, t, center, weight](std::span<const double> v) {
    const double d = v[x] - center;
    return weight * d * d - v[t];
  };
  c.gradient = [x, t, center, weight](std::span<const double> v) {
    return std::vector<GradEntry>{{x, 2.0 * weight * (v[x] - center)},
                                  {t, -1.0}};
  };
  return c;
}

TEST(Kelley, SolvesConvexQp) {
  // min t s.t. (x-1.5)^2 <= t, 0 <= x <= 4, 0 <= t <= 100.
  Model m;
  const auto x = m.add_continuous(0.0, 4.0, "x");
  const auto t = m.add_continuous(0.0, 100.0, "t");
  m.set_objective(t, 1.0);
  m.add_nonlinear(quad_above(x, t, 1.5, 1.0));
  CutPool pool;
  const auto res = solve_relaxation(m, pool);
  ASSERT_EQ(res.status, KelleyResult::Status::Optimal);
  EXPECT_NEAR(res.objective, 0.0, 1e-5);
  EXPECT_NEAR(res.x[x], 1.5, 1e-2);
}

TEST(Kelley, BoundOverridesPinVariables) {
  // min t s.t. (x-1.5)^2 <= t; overriding x's box to [3,3] must move the
  // optimum to (3-1.5)^2 = 2.25 without touching the model.
  Model m;
  const auto x = m.add_continuous(0.0, 4.0, "x");
  const auto t = m.add_continuous(0.0, 100.0, "t");
  m.set_objective(t, 1.0);
  m.add_nonlinear(quad_above(x, t, 1.5, 1.0));
  CutPool pool;
  BoundOverrides pin(m.num_vars());
  pin.lower[x] = 3.0;
  pin.upper[x] = 3.0;
  const auto res = solve_relaxation(m, pool, pin);
  ASSERT_EQ(res.status, KelleyResult::Status::Optimal);
  EXPECT_NEAR(res.x[x], 3.0, 1e-9);
  EXPECT_NEAR(res.objective, 2.25, 1e-4);
  // The model's own bounds are unchanged.
  EXPECT_DOUBLE_EQ(m.lower(x), 0.0);
}

TEST(Kelley, CrossedOverrideBoundsAreInfeasible) {
  Model m;
  const auto x = m.add_continuous(0.0, 4.0, "x");
  m.set_objective(x, 1.0);
  CutPool pool;
  BoundOverrides crossed(m.num_vars());
  crossed.lower[x] = 3.0;
  crossed.upper[x] = 2.0;  // empty box (as produced by deep branching)
  const auto res = solve_relaxation(m, pool, crossed);
  EXPECT_EQ(res.status, KelleyResult::Status::Infeasible);
}

TEST(Kelley, DetectsInfeasible) {
  Model m;
  const auto x = m.add_continuous(0.0, 1.0, "x");
  m.set_objective(x, 1.0);
  m.add_linear({{x, 1.0}}, 2.0, 3.0);  // impossible
  CutPool pool;
  EXPECT_EQ(solve_relaxation(m, pool).status, KelleyResult::Status::Infeasible);
}

TEST(Bnb, PureIntegerLinear) {
  // min -x - y s.t. x + y <= 3.5, x,y in {0..3}: optimum -3 at e.g. (3, 0)
  // ... wait, x+y <= 3.5 allows (3,0),(2,1)... all sum to 3 -> obj -3.
  Model m;
  const auto x = m.add_integer(0.0, 3.0, "x");
  const auto y = m.add_integer(0.0, 3.0, "y");
  m.set_objective(x, -1.0);
  m.set_objective(y, -1.0);
  m.add_linear({{x, 1.0}, {y, 1.0}}, -kInf, 3.5);
  const auto res = solve(m);
  ASSERT_EQ(res.status, BnbStatus::Optimal);
  EXPECT_NEAR(res.objective, -3.0, 1e-6);
  EXPECT_TRUE(m.is_feasible(res.x));
}

TEST(Bnb, IntegerPointOfConvexParabola) {
  // min t s.t. (x-2.4)^2 <= t, x integer in [0,10] -> x=2, t=0.16.
  Model m;
  const auto x = m.add_integer(0.0, 10.0, "x");
  const auto t = m.add_continuous(0.0, 1000.0, "t");
  m.set_objective(t, 1.0);
  m.add_nonlinear(quad_above(x, t, 2.4, 1.0));
  const auto res = solve(m);
  ASSERT_EQ(res.status, BnbStatus::Optimal);
  EXPECT_NEAR(res.x[x], 2.0, 1e-6);
  EXPECT_NEAR(res.objective, 0.16, 1e-4);
}

TEST(Bnb, InfeasibleIntegerModel) {
  Model m;
  const auto x = m.add_integer(0.0, 10.0, "x");
  m.set_objective(x, 1.0);
  m.add_linear({{x, 2.0}}, 5.0, 5.0);  // x = 2.5 impossible for integer x
  const auto res = solve(m);
  EXPECT_EQ(res.status, BnbStatus::Infeasible);
  EXPECT_FALSE(res.has_solution);
}

TEST(Bnb, RequiresFiniteBounds) {
  Model m;
  m.add_continuous(0.0, kInf, "x");
  EXPECT_THROW(solve(m), ContractViolation);
}

TEST(Bnb, Sos1SelectsBestAllocation) {
  // Mimics the paper's ocean-allocation structure: z_k pick one node count
  // from O = {2, 4, 8, 16, 32}; minimize T >= f(n) with f convex decreasing;
  // plus budget n <= 20. Best feasible pick: n = 16.
  Model m;
  const std::vector<double> counts{2.0, 4.0, 8.0, 16.0, 32.0};
  std::vector<std::size_t> zs;
  for (std::size_t k = 0; k < counts.size(); ++k)
    zs.push_back(m.add_binary("z" + std::to_string(k)));
  const auto n = m.add_continuous(2.0, 32.0, "n");
  const auto t = m.add_continuous(0.0, 1000.0, "t");
  m.set_objective(t, 1.0);
  // sum z = 1; sum z_k O_k = n; n <= 20
  {
    std::vector<lp::Coeff> ones, weighted;
    for (std::size_t k = 0; k < zs.size(); ++k) {
      ones.push_back({zs[k], 1.0});
      weighted.push_back({zs[k], counts[k]});
    }
    m.add_linear(ones, 1.0, 1.0);
    weighted.push_back({n, -1.0});
    m.add_linear(weighted, 0.0, 0.0);
  }
  m.add_linear({{n, 1.0}}, -kInf, 20.0);
  // T >= 100/n  <=>  100/n - T <= 0 (convex in n > 0).
  NonlinearConstraint c;
  c.vars = {n, t};
  c.value = [n, t](std::span<const double> v) { return 100.0 / v[n] - v[t]; };
  c.gradient = [n, t](std::span<const double> v) {
    return std::vector<GradEntry>{{n, -100.0 / (v[n] * v[n])}, {t, -1.0}};
  };
  m.add_nonlinear(std::move(c));
  Sos1 sos{"ocn", zs, counts};
  m.add_sos1(std::move(sos));

  for (bool use_sos : {true, false}) {
    BnbOptions opt;
    opt.use_sos_branching = use_sos;
    const auto res = solve(m, opt);
    ASSERT_EQ(res.status, BnbStatus::Optimal) << "use_sos=" << use_sos;
    EXPECT_NEAR(res.x[n], 16.0, 1e-5);
    EXPECT_NEAR(res.objective, 100.0 / 16.0, 1e-4);
    EXPECT_TRUE(m.is_feasible(res.x, 1e-5, 1e-5));
  }
}

// ---------------------------------------------------------------------------
// Property test: random convex MINLPs vs. exhaustive enumeration.
// ---------------------------------------------------------------------------

struct RandomMinlp {
  Model model;
  std::vector<std::size_t> int_vars;
  std::vector<long long> lo, hi;
  // ground truth evaluator: given integer assignment, returns optimal
  // continuous completion objective or nullopt if infeasible.
  std::function<std::optional<double>(const std::vector<long long>&)> value;
};

/// Builds: min sum_i t_i  s.t.  w_i (x_i - c_i)^2 <= t_i,  sum x_i <= budget,
/// x_i integer in [0, hi_i]. The continuous completion is trivial:
/// t_i = w_i (x_i - c_i)^2.
RandomMinlp make_random_minlp(Rng& rng) {
  RandomMinlp out;
  const int k = static_cast<int>(rng.uniform_int(1, 3));
  std::vector<double> centers, weights;
  double budget = 0.0;
  for (int i = 0; i < k; ++i) {
    const long long hi = rng.uniform_int(2, 6);
    const double center = rng.uniform(0.0, static_cast<double>(hi));
    const double weight = rng.uniform(0.5, 3.0);
    const auto x = out.model.add_integer(0.0, static_cast<double>(hi));
    const auto t = out.model.add_continuous(0.0, 1000.0);
    out.model.set_objective(t, 1.0);
    out.model.add_nonlinear(quad_above(x, t, center, weight));
    out.int_vars.push_back(x);
    out.lo.push_back(0);
    out.hi.push_back(hi);
    centers.push_back(center);
    weights.push_back(weight);
    budget += static_cast<double>(hi);
  }
  budget = std::floor(budget * rng.uniform(0.4, 1.0));
  std::vector<lp::Coeff> coeffs;
  for (auto v : out.int_vars) coeffs.push_back({v, 1.0});
  out.model.add_linear(coeffs, -kInf, budget);

  out.value = [centers, weights, budget](const std::vector<long long>& xs)
      -> std::optional<double> {
    double sum = 0.0, obj = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      sum += static_cast<double>(xs[i]);
      const double d = static_cast<double>(xs[i]) - centers[i];
      obj += weights[i] * d * d;
    }
    if (sum > budget + 1e-9) return std::nullopt;
    return obj;
  };
  return out;
}

std::optional<double> enumerate_best(const RandomMinlp& p) {
  std::optional<double> best;
  std::vector<long long> assign(p.int_vars.size(), 0);
  std::function<void(std::size_t)> rec = [&](std::size_t i) {
    if (i == assign.size()) {
      const auto v = p.value(assign);
      if (v && (!best || *v < *best)) best = *v;
      return;
    }
    for (long long x = p.lo[i]; x <= p.hi[i]; ++x) {
      assign[i] = x;
      rec(i + 1);
    }
  };
  rec(0);
  return best;
}

class BnbRandomConvex : public ::testing::TestWithParam<int> {};

TEST_P(BnbRandomConvex, MatchesExhaustiveEnumeration) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  const auto p = make_random_minlp(rng);
  const auto expected = enumerate_best(p);
  const auto res = solve(p.model);
  ASSERT_TRUE(expected.has_value());  // x = 0 is always feasible (budget >= 0)
  ASSERT_EQ(res.status, BnbStatus::Optimal);
  EXPECT_NEAR(res.objective, *expected, 1e-4);
  EXPECT_TRUE(p.model.is_feasible(res.x, 1e-5, 1e-5));
}

INSTANTIATE_TEST_SUITE_P(Sweep, BnbRandomConvex, ::testing::Range(0, 60));

class BnbPseudoCost : public ::testing::TestWithParam<int> {};

TEST_P(BnbPseudoCost, MatchesExhaustiveEnumeration) {
  // The pseudocost branch rule must reach the same proven optimum as the
  // default most-fractional rule.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7177 + 11);
  const auto p = make_random_minlp(rng);
  const auto expected = enumerate_best(p);
  BnbOptions opt;
  opt.branch_rule = BranchRule::PseudoCost;
  const auto res = solve(p.model, opt);
  ASSERT_TRUE(expected.has_value());
  ASSERT_EQ(res.status, BnbStatus::Optimal);
  EXPECT_NEAR(res.objective, *expected, 1e-4);
  EXPECT_TRUE(p.model.is_feasible(res.x, 1e-5, 1e-5));
}

INSTANTIATE_TEST_SUITE_P(Sweep, BnbPseudoCost, ::testing::Range(0, 30));

TEST(Bnb, ReportsStatistics) {
  Model m;
  const auto x = m.add_integer(0.0, 10.0, "x");
  const auto t = m.add_continuous(0.0, 1000.0, "t");
  m.set_objective(t, 1.0);
  m.add_nonlinear(quad_above(x, t, 5.7, 2.0));
  const auto res = solve(m);
  ASSERT_EQ(res.status, BnbStatus::Optimal);
  EXPECT_GE(res.nodes, 1u);
  EXPECT_GE(res.lp_solves, 1u);
  EXPECT_GT(res.cuts, 0u);
  EXPECT_EQ(res.gap, 0.0);
  EXPECT_GT(res.seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Determinism contract: the search — incumbent, bound, tree size, solve
// counts — is bit-identical for every solver_threads value, because nodes
// are expanded in synchronized best-bound waves merged in wave order.
// ---------------------------------------------------------------------------

class BnbThreadDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(BnbThreadDeterminism, BitIdenticalAcrossThreadCounts) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9973 + 5);
  const auto p = make_random_minlp(rng);
  BnbOptions opt;
  opt.solver_threads = 1;
  const auto serial = solve(p.model, opt);
  for (std::size_t threads : {2u, 8u}) {
    opt.solver_threads = threads;
    const auto par = solve(p.model, opt);
    ASSERT_EQ(par.status, serial.status) << "threads=" << threads;
    // Bit-identical, not merely close: the wave schedule must make the
    // parallel search indistinguishable from the serial one.
    EXPECT_EQ(par.objective, serial.objective) << "threads=" << threads;
    EXPECT_EQ(par.x, serial.x) << "threads=" << threads;
    EXPECT_EQ(par.best_bound, serial.best_bound) << "threads=" << threads;
    EXPECT_EQ(par.nodes, serial.nodes) << "threads=" << threads;
    EXPECT_EQ(par.waves, serial.waves) << "threads=" << threads;
    EXPECT_EQ(par.lp_solves, serial.lp_solves) << "threads=" << threads;
    EXPECT_EQ(par.nlp_solves, serial.nlp_solves) << "threads=" << threads;
    EXPECT_EQ(par.cuts, serial.cuts) << "threads=" << threads;
    // The sparse-kernel counters are sums over a bit-identical set of LP
    // solves, so they too must not depend on the thread count.
    EXPECT_EQ(par.lp_pivots, serial.lp_pivots) << "threads=" << threads;
    EXPECT_EQ(par.lp_stats.kernel_flops, serial.lp_stats.kernel_flops)
        << "threads=" << threads;
    EXPECT_EQ(par.lp_stats.kernel_dense_flops,
              serial.lp_stats.kernel_dense_flops)
        << "threads=" << threads;
    EXPECT_EQ(par.lp_stats.refactorizations, serial.lp_stats.refactorizations)
        << "threads=" << threads;
    // Forrest-Tomlin update and dual-simplex counters ride the same
    // deterministic pivot paths.
    EXPECT_EQ(par.lp_stats.ft_updates, serial.lp_stats.ft_updates)
        << "threads=" << threads;
    EXPECT_EQ(par.lp_stats.ft_fill_nnz, serial.lp_stats.ft_fill_nnz)
        << "threads=" << threads;
    EXPECT_EQ(par.lp_stats.refactor_interval_hits,
              serial.lp_stats.refactor_interval_hits)
        << "threads=" << threads;
    EXPECT_EQ(par.lp_stats.refactor_fill_hits,
              serial.lp_stats.refactor_fill_hits)
        << "threads=" << threads;
    EXPECT_EQ(par.lp_stats.refactor_drift_hits,
              serial.lp_stats.refactor_drift_hits)
        << "threads=" << threads;
    EXPECT_EQ(par.lp_stats.dual_pivots, serial.lp_stats.dual_pivots)
        << "threads=" << threads;
    EXPECT_EQ(par.lp_stats.phase1_pivots, serial.lp_stats.phase1_pivots)
        << "threads=" << threads;
    EXPECT_EQ(par.lp_stats.dual_phase1_avoided,
              serial.lp_stats.dual_phase1_avoided)
        << "threads=" << threads;
    // Presolve, propagation, and cut lifecycle all run on the same
    // deterministic wave schedule, so their counters cannot drift either.
    EXPECT_EQ(par.lp_stats.presolve_rows_removed,
              serial.lp_stats.presolve_rows_removed)
        << "threads=" << threads;
    EXPECT_EQ(par.lp_stats.presolve_cols_removed,
              serial.lp_stats.presolve_cols_removed)
        << "threads=" << threads;
    EXPECT_EQ(par.bounds_tightened, serial.bounds_tightened)
        << "threads=" << threads;
    EXPECT_EQ(par.nodes_propagated_infeasible,
              serial.nodes_propagated_infeasible)
        << "threads=" << threads;
    EXPECT_EQ(par.cuts_retired, serial.cuts_retired) << "threads=" << threads;
    EXPECT_EQ(par.cuts_reactivated, serial.cuts_reactivated)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BnbThreadDeterminism, ::testing::Range(0, 20));

class BnbWarmVsCold : public ::testing::TestWithParam<int> {};

TEST_P(BnbWarmVsCold, WarmStartsNeverChangeTheAnswer) {
  // Warm bases change the pivot path, never the proven optimum.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 3571 + 17);
  const auto p = make_random_minlp(rng);
  const auto expected = enumerate_best(p);
  ASSERT_TRUE(expected.has_value());
  for (bool warm : {false, true}) {
    BnbOptions opt;
    opt.warm_start = warm;
    const auto res = solve(p.model, opt);
    ASSERT_EQ(res.status, BnbStatus::Optimal) << "warm=" << warm;
    EXPECT_NEAR(res.objective, *expected, 1e-4) << "warm=" << warm;
    EXPECT_TRUE(p.model.is_feasible(res.x, 1e-5, 1e-5)) << "warm=" << warm;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BnbWarmVsCold, ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// Presolve + domain propagation + cut lifecycle (ISSUE 4).
// ---------------------------------------------------------------------------

class BnbPresolveParity : public ::testing::TestWithParam<int> {};

TEST_P(BnbPresolveParity, SameOptimumWithAndWithoutPresolve) {
  // Presolve and cut retirement change the LP path, never the proven
  // optimum: on/off must both land on the enumerated optimum.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 4241 + 29);
  const auto p = make_random_minlp(rng);
  const auto expected = enumerate_best(p);
  ASSERT_TRUE(expected.has_value());
  BnbOptions on;  // presolve + cut_age_limit defaults
  BnbOptions off;
  off.presolve = false;
  off.cut_age_limit = 0;  // keep every cut forever
  const auto r_on = solve(p.model, on);
  const auto r_off = solve(p.model, off);
  ASSERT_EQ(r_on.status, BnbStatus::Optimal);
  ASSERT_EQ(r_off.status, BnbStatus::Optimal);
  EXPECT_NEAR(r_on.objective, *expected, 1e-4);
  EXPECT_NEAR(r_off.objective, *expected, 1e-4);
  EXPECT_TRUE(p.model.is_feasible(r_on.x, 1e-5, 1e-5));
  EXPECT_TRUE(p.model.is_feasible(r_off.x, 1e-5, 1e-5));
}

INSTANTIATE_TEST_SUITE_P(Sweep, BnbPresolveParity, ::testing::Range(0, 10));

class BnbAggressiveRetirement : public ::testing::TestWithParam<int> {};

TEST_P(BnbAggressiveRetirement, RetirementNeverLosesValidity) {
  // age limit 1 retires a cut after a single slack observation — maximal
  // churn through retire/reactivate, yet the optimum must not move.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 5087 + 41);
  const auto p = make_random_minlp(rng);
  const auto expected = enumerate_best(p);
  ASSERT_TRUE(expected.has_value());
  BnbOptions opt;
  opt.cut_age_limit = 1;
  const auto res = solve(p.model, opt);
  ASSERT_EQ(res.status, BnbStatus::Optimal);
  EXPECT_NEAR(res.objective, *expected, 1e-4);
  EXPECT_TRUE(p.model.is_feasible(res.x, 1e-5, 1e-5));
}

INSTANTIATE_TEST_SUITE_P(Sweep, BnbAggressiveRetirement,
                         ::testing::Range(0, 10));

TEST(Propagation, TightensThroughLinearRows) {
  // x + y <= 3 with x,y integer in [0,10]: both uppers drop to 3.
  Model m;
  const auto x = m.add_integer(0.0, 10.0, "x");
  const auto y = m.add_integer(0.0, 10.0, "y");
  m.add_linear({{x, 1.0}, {y, 1.0}}, -kInf, 3.0);
  BoundOverrides b(m.num_vars());
  std::size_t tightened = 0;
  ASSERT_TRUE(propagate_bounds(m, b, 1e-6, 4, &tightened));
  EXPECT_DOUBLE_EQ(b.ub(m, x), 3.0);
  EXPECT_DOUBLE_EQ(b.ub(m, y), 3.0);
  EXPECT_GE(tightened, 2u);
}

TEST(Propagation, RoundsIntegerBounds) {
  // 2x <= 5 -> x <= 2.5 -> x <= 2 for integer x.
  Model m;
  const auto x = m.add_integer(0.0, 10.0, "x");
  m.add_linear({{x, 2.0}}, -kInf, 5.0);
  BoundOverrides b(m.num_vars());
  ASSERT_TRUE(propagate_bounds(m, b, 1e-6));
  EXPECT_DOUBLE_EQ(b.ub(m, x), 2.0);
  // Lower side: 3x >= 7 -> x >= 7/3 -> x >= 3.
  Model m2;
  const auto z = m2.add_integer(0.0, 10.0, "z");
  m2.add_linear({{z, 3.0}}, 7.0, kInf);
  BoundOverrides b2(m2.num_vars());
  ASSERT_TRUE(propagate_bounds(m2, b2, 1e-6));
  EXPECT_DOUBLE_EQ(b2.lb(m2, z), 3.0);
}

TEST(Propagation, DetectsRowInfeasibility) {
  // Node branching pinned x <= 4, but a row demands x >= 5.
  Model m;
  const auto x = m.add_integer(0.0, 10.0, "x");
  m.add_linear({{x, 1.0}}, 5.0, kInf);
  BoundOverrides b(m.num_vars());
  b.upper[x] = 4.0;
  EXPECT_FALSE(propagate_bounds(m, b, 1e-6));
}

TEST(Propagation, ChainsAcrossRows) {
  // x <= 2 forces y >= 4 via x + y >= 6; y >= 4 then forces w <= 1 via
  // y + 2w <= 6 — one call must reach the fixpoint across both rows.
  Model m;
  const auto x = m.add_integer(0.0, 10.0, "x");
  const auto y = m.add_integer(0.0, 10.0, "y");
  const auto w = m.add_integer(0.0, 10.0, "w");
  m.add_linear({{x, 1.0}, {y, 1.0}}, 6.0, kInf);
  m.add_linear({{y, 1.0}, {w, 2.0}}, -kInf, 6.0);
  BoundOverrides b(m.num_vars());
  b.upper[x] = 2.0;
  ASSERT_TRUE(propagate_bounds(m, b, 1e-6));
  EXPECT_DOUBLE_EQ(b.lb(m, y), 4.0);
  EXPECT_DOUBLE_EQ(b.ub(m, w), 1.0);
}

TEST(Propagation, Sos1FixesSiblingsOfForcedMember) {
  Model m;
  std::vector<std::size_t> zs;
  for (int k = 0; k < 3; ++k)
    zs.push_back(m.add_binary("z" + std::to_string(k)));
  m.add_sos1(Sos1{"s", zs, {1.0, 2.0, 3.0}});
  BoundOverrides b(m.num_vars());
  b.lower[zs[1]] = 1.0;  // branching forced z1 on
  ASSERT_TRUE(propagate_bounds(m, b, 1e-6));
  EXPECT_DOUBLE_EQ(b.ub(m, zs[0]), 0.0);
  EXPECT_DOUBLE_EQ(b.ub(m, zs[2]), 0.0);
  EXPECT_DOUBLE_EQ(b.ub(m, zs[1]), 1.0);
}

TEST(Propagation, Sos1TwoForcedMembersIsInfeasible) {
  Model m;
  std::vector<std::size_t> zs;
  for (int k = 0; k < 3; ++k)
    zs.push_back(m.add_binary("z" + std::to_string(k)));
  m.add_sos1(Sos1{"s", zs, {1.0, 2.0, 3.0}});
  BoundOverrides b(m.num_vars());
  b.lower[zs[0]] = 1.0;
  b.lower[zs[2]] = 1.0;
  EXPECT_FALSE(propagate_bounds(m, b, 1e-6));
}

TEST(CutLifecycle, InsertDeduplicatesBySignature) {
  CutPool pool;
  Cut c{{{0, 1.0}, {2, -2.0}}, 1.5, 0};
  const auto id = pool.insert(c);
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(pool.insert(c), id);  // exact duplicate
  Cut nudged = c;
  nudged.coeffs[0].second += 1e-12;  // within relative 1e-9
  EXPECT_EQ(pool.find_duplicate(nudged), id);
  Cut other_source = c;
  other_source.source_constraint = 1;
  EXPECT_EQ(pool.find_duplicate(other_source), CutPool::npos);
  Cut other_pattern = c;
  other_pattern.coeffs[1].first = 3;
  EXPECT_EQ(pool.find_duplicate(other_pattern), CutPool::npos);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(CutLifecycle, SlackObservationsRetireAndViolationReactivates) {
  CutPool pool;
  const auto id = pool.insert(Cut{{{0, 1.0}}, 0.5, 0});
  ASSERT_TRUE(pool.is_active(id));
  // age limit 2: slack -> age 1, 2, then 3 > 2 retires.
  EXPECT_FALSE(pool.observe(id, /*tight=*/false, 2));
  EXPECT_FALSE(pool.observe(id, false, 2));
  EXPECT_TRUE(pool.observe(id, false, 2));
  EXPECT_FALSE(pool.is_active(id));
  EXPECT_EQ(pool.num_active(), 0u);
  EXPECT_EQ(pool.retired_total(), 1u);
  EXPECT_TRUE(pool.active_ids().empty());
  // Observations of retired cuts are dropped; reactivation flips once.
  EXPECT_FALSE(pool.observe(id, true, 2));
  EXPECT_TRUE(pool.reactivate(id));
  EXPECT_FALSE(pool.reactivate(id));
  EXPECT_TRUE(pool.is_active(id));
  EXPECT_EQ(pool.reactivated_total(), 1u);
  // A tight observation resets the age: two slacks no longer retire.
  EXPECT_FALSE(pool.observe(id, false, 2));
  EXPECT_FALSE(pool.observe(id, true, 2));
  EXPECT_FALSE(pool.observe(id, false, 2));
  EXPECT_FALSE(pool.observe(id, false, 2));
  EXPECT_TRUE(pool.is_active(id));
}

TEST(CutLifecycle, AgeLimitZeroNeverRetires) {
  CutPool pool;
  const auto id = pool.insert(Cut{{{0, 1.0}}, 0.5, 0});
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(pool.observe(id, false, 0));
  EXPECT_TRUE(pool.is_active(id));
  EXPECT_EQ(pool.retired_total(), 0u);
}

TEST(CutLifecycle, LegacyAddReactivatesRetiredDuplicate) {
  CutPool pool;
  Cut c{{{0, 1.0}}, 0.5, 0};
  ASSERT_TRUE(pool.add(c));
  EXPECT_FALSE(pool.observe(0, false, 1));
  EXPECT_TRUE(pool.observe(0, false, 1));  // second slack retires
  ASSERT_FALSE(pool.is_active(0));
  // Re-adding the retired cut (a node saw it violated) reactivates it.
  EXPECT_FALSE(pool.add(c));  // not new...
  EXPECT_TRUE(pool.is_active(0));  // ...but active again
}

TEST(CutLifecycle, LedgerOverlaysSharedPoolWithoutMutatingIt) {
  CutPool pool;
  const auto keep = pool.insert(Cut{{{0, 1.0}}, 0.5, 0});
  const auto retired = pool.insert(Cut{{{1, 1.0}}, 0.25, 1});
  pool.observe(retired, false, 1);
  pool.observe(retired, false, 1);
  ASSERT_FALSE(pool.is_active(retired));

  const auto active = pool.active_ids();
  ASSERT_EQ(active, std::vector<std::size_t>{keep});
  CutLedger ledger(pool, active);
  EXPECT_EQ(ledger.num_cuts(), 1u);

  // A duplicate of an active shared cut adds nothing.
  EXPECT_FALSE(ledger.add(Cut{{{0, 1.0}}, 0.5, 0}));
  // A duplicate of the *retired* shared cut grows the layout and records a
  // reactivation request — the shared pool itself stays untouched.
  EXPECT_TRUE(ledger.add(Cut{{{1, 1.0}}, 0.25, 1}));
  EXPECT_EQ(ledger.num_cuts(), 2u);
  ASSERT_EQ(ledger.reactivated().size(), 1u);
  EXPECT_EQ(ledger.reactivated()[0], retired);
  EXPECT_FALSE(pool.is_active(retired));
  // A fresh cut is appended; its layout slot refers into appended().
  EXPECT_TRUE(ledger.add(Cut{{{2, 1.0}}, 1.0, 0}));
  EXPECT_EQ(ledger.num_cuts(), 3u);
  ASSERT_EQ(ledger.appended().size(), 1u);
  EXPECT_TRUE(ledger.layout().back().is_appended);
  EXPECT_DOUBLE_EQ(ledger.cut(2).rhs, 1.0);
  // The same fresh cut again is a duplicate of the appended one.
  EXPECT_FALSE(ledger.add(Cut{{{2, 1.0}}, 1.0, 0}));
}

TEST(CutLifecycle, LedgerReactivatesRetiredCutsViolatedAtPoint) {
  CutPool pool;
  const auto id = pool.insert(Cut{{{0, 1.0}}, 0.5, 0});  // x0 <= 0.5
  pool.observe(id, false, 1);
  pool.observe(id, false, 1);
  ASSERT_FALSE(pool.is_active(id));

  CutLedger ledger(pool, pool.active_ids());
  EXPECT_EQ(ledger.num_cuts(), 0u);
  const std::vector<double> satisfied{0.25};
  EXPECT_EQ(ledger.reactivate_violated(satisfied, 1e-9), 0u);
  const std::vector<double> violated{1.0};
  EXPECT_EQ(ledger.reactivate_violated(violated, 1e-9), 1u);
  EXPECT_EQ(ledger.num_cuts(), 1u);
  ASSERT_EQ(ledger.reactivated().size(), 1u);
  EXPECT_EQ(ledger.reactivated()[0], id);
  // Already in the layout: a second scan must not duplicate it.
  EXPECT_EQ(ledger.reactivate_violated(violated, 1e-9), 0u);
}

TEST(Bnb, CountersFlowThroughResult) {
  // A model with a redundant row (presolve fodder), a binding budget
  // (propagation fodder), and curvature (cut fodder).
  Rng rng(99);
  const auto p = make_random_minlp(rng);
  BnbOptions opt;
  opt.cut_age_limit = 1;  // maximal retirement churn
  const auto res = solve(p.model, opt);
  ASSERT_EQ(res.status, BnbStatus::Optimal);
  // Retired plus reactivated are internally consistent: a cut cannot be
  // reactivated more often than it was retired.
  EXPECT_LE(res.cuts_reactivated, res.cuts_retired);
}

TEST(Bnb, NodeLimitReturnsIncumbentWithGap) {
  // Make a slightly larger instance and force a 1-node limit.
  Rng rng(777);
  const auto p = make_random_minlp(rng);
  BnbOptions opt;
  opt.max_nodes = 1;
  const auto res = solve(p.model, opt);
  EXPECT_TRUE(res.status == BnbStatus::NodeLimit ||
              res.status == BnbStatus::Optimal);
}

}  // namespace
}  // namespace hslb::minlp

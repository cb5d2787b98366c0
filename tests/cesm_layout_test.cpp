#include "cesm/layouts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "minlp/bnb.hpp"

namespace hslb::cesm {
namespace {

std::array<perf::Model, 4> simple_models() {
  // lnd, ice, atm, ocn — pure Amdahl curves with different scales.
  return {perf::Model{1500.0, 0.0, 1.0, 2.0}, perf::Model{8400.0, 0.0, 1.0, 12.0},
          perf::Model{27500.0, 0.0, 1.0, 44.0}, perf::Model{7650.0, 0.0, 1.0, 46.0}};
}

TEST(LayoutTotal, FormulasMatchTableI) {
  const std::array<double, 4> s{10.0, 20.0, 100.0, 90.0};  // lnd ice atm ocn
  EXPECT_DOUBLE_EQ(layout_total(Layout::Hybrid, s), 120.0);
  EXPECT_DOUBLE_EQ(layout_total(Layout::SequentialAtmGroup, s), 130.0);
  EXPECT_DOUBLE_EQ(layout_total(Layout::FullySequential, s), 220.0);
}

TEST(LayoutTotal, OceanBoundCase) {
  const std::array<double, 4> s{10.0, 20.0, 100.0, 500.0};
  EXPECT_DOUBLE_EQ(layout_total(Layout::Hybrid, s), 500.0);
  EXPECT_DOUBLE_EQ(layout_total(Layout::SequentialAtmGroup, s), 500.0);
}

TEST(MakeProblem, Deg1UsesPublishedSets) {
  const auto p = make_problem(Resolution::Deg1, Layout::Hybrid, 2048,
                              simple_models());
  EXPECT_FALSE(p.choices[index(Component::Ocn)].allowed.empty());
  EXPECT_FALSE(p.choices[index(Component::Atm)].allowed.empty());
  EXPECT_TRUE(p.choices[index(Component::Lnd)].allowed.empty());
  // Sets are filtered to the partition size.
  for (long long v : p.choices[index(Component::Atm)].allowed)
    EXPECT_LE(v, 2048);
}

TEST(MakeProblem, UnconstrainedOceanIsRange) {
  const auto p = make_problem(Resolution::EighthDeg, Layout::Hybrid, 8192,
                              simple_models(), /*ocean_constrained=*/false);
  EXPECT_TRUE(p.choices[index(Component::Ocn)].allowed.empty());
  EXPECT_EQ(p.choices[index(Component::Ocn)].lo, 2);
}

TEST(SolveLayout, RespectsAllConstraintsHybrid) {
  auto p = make_problem(Resolution::Deg1, Layout::Hybrid, 128, simple_models());
  const auto sol = solve_layout(p);
  const auto lnd = sol.nodes[index(Component::Lnd)];
  const auto ice = sol.nodes[index(Component::Ice)];
  const auto atm = sol.nodes[index(Component::Atm)];
  const auto ocn = sol.nodes[index(Component::Ocn)];
  EXPECT_LE(atm + ocn, 128);
  EXPECT_LE(ice + lnd, atm);
  const auto& allowed = ocean_allowed_nodes(Resolution::Deg1);
  EXPECT_NE(std::find(allowed.begin(), allowed.end(), ocn), allowed.end());
  // Objective equals the layout formula applied to the predictions.
  EXPECT_NEAR(sol.predicted_total,
              layout_total(Layout::Hybrid, sol.predicted_seconds),
              1e-4 * sol.predicted_total);
}

TEST(SolveLayout, SequentialLayoutBudget) {
  auto p = make_problem(Resolution::Deg1, Layout::SequentialAtmGroup, 128,
                        simple_models());
  const auto sol = solve_layout(p);
  for (Component c : {Component::Lnd, Component::Ice, Component::Atm}) {
    EXPECT_LE(sol.nodes[index(c)] + sol.nodes[index(Component::Ocn)], 128);
  }
  EXPECT_NEAR(sol.predicted_total,
              layout_total(Layout::SequentialAtmGroup, sol.predicted_seconds),
              1e-4 * sol.predicted_total);
}

TEST(SolveLayout, FullySequentialUsesWholeMachinePerComponent) {
  auto p = make_problem(Resolution::Deg1, Layout::FullySequential, 128,
                        simple_models());
  const auto sol = solve_layout(p);
  // With sequential execution each component can (and here should) use many
  // nodes; total is the sum formula.
  EXPECT_NEAR(sol.predicted_total,
              layout_total(Layout::FullySequential, sol.predicted_seconds),
              1e-4 * sol.predicted_total);
}

TEST(SolveLayout, LayoutOrderingMatchesFigure4) {
  // Figure 4: layouts 1 and 2 perform similarly, layout 3 is worst.
  const auto models = simple_models();
  std::array<double, 3> totals{};
  for (int l = 1; l <= 3; ++l) {
    auto p = make_problem(Resolution::Deg1, static_cast<Layout>(l), 512, models);
    totals[static_cast<std::size_t>(l - 1)] = solve_layout(p).predicted_total;
  }
  EXPECT_LE(totals[0], totals[1] * 1.001);  // hybrid <= seq-group
  EXPECT_LT(totals[1], totals[2]);          // seq-group < fully sequential
}

TEST(SolveLayout, MoreNodesNeverWorse) {
  const auto models = simple_models();
  double prev = 1e300;
  for (long long n : {128, 256, 512, 1024, 2048}) {
    auto p = make_problem(Resolution::Deg1, Layout::Hybrid, n, models);
    const auto sol = solve_layout(p);
    EXPECT_LE(sol.predicted_total, prev * 1.0001) << "N=" << n;
    prev = sol.predicted_total;
  }
}

TEST(SolveLayout, TsyncTightensLndIceGap) {
  auto p = make_problem(Resolution::Deg1, Layout::Hybrid, 512, simple_models());
  // Solve free, then with a tight tolerance on the surrogate gap.
  const auto free_sol = solve_layout(p);
  p.tsync = 1.0;
  const auto sync_sol = solve_layout(p);
  // §III-A: extra constraints can only make the optimum worse or equal.
  EXPECT_GE(sync_sol.predicted_total, free_sol.predicted_total - 1e-6);
}

TEST(SolveLayout, OceanSetBindsSolution) {
  // With a severely restricted ocean set, the solution must pick from it
  // even when a neighbouring count would be better.
  auto p = make_problem(Resolution::EighthDeg, Layout::Hybrid, 8192,
                        std::array<perf::Model, 4>{
                            perf::Model{59000.0, 0.0, 1.0, 22.0},
                            perf::Model{1.7e6, 0.0, 1.0, 156.0},
                            perf::Model{1.34e7, 0.0, 1.0, 271.0},
                            perf::Model{8.1e6, 0.0, 1.0, 395.0}});
  const auto sol = solve_layout(p);
  const auto ocn = sol.nodes[index(Component::Ocn)];
  const auto& allowed = ocean_allowed_nodes(Resolution::EighthDeg);
  EXPECT_NE(std::find(allowed.begin(), allowed.end(), ocn), allowed.end());
  // 19460 exceeds what atm+ocn budget allows here, so it must be <= 6124.
  EXPECT_LE(ocn, 6124);
}

TEST(BuildLayoutMinlp, ConvexModelsRequired) {
  auto models = simple_models();
  models[0].b = 1.0;
  models[0].c = 0.5;  // non-convex
  LayoutProblem p;
  p.layout = Layout::Hybrid;
  p.total_nodes = 128;
  p.models = models;
  for (auto& ch : p.choices) {
    ch.lo = 1;
    ch.hi = 128;
  }
  EXPECT_THROW(build_layout_minlp(p), ContractViolation);
}

TEST(BuildLayoutMinlp, ExposesNodeVariables) {
  auto p = make_problem(Resolution::Deg1, Layout::Hybrid, 128, simple_models());
  std::array<std::size_t, 4> vars{};
  const auto m = build_layout_minlp(p, &vars);
  // Node variables must carry the component names.
  EXPECT_EQ(m.var_name(vars[index(Component::Lnd)]), "n_lnd");
  EXPECT_EQ(m.var_name(vars[index(Component::Ocn)]), "n_ocn");
}

class LayoutRandomModels : public ::testing::TestWithParam<int> {};

TEST_P(LayoutRandomModels, SolutionsAlwaysFeasible) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9341 + 3);
  std::array<perf::Model, 4> models;
  for (auto& m : models) {
    m.a = rng.uniform(100.0, 50000.0);
    m.b = 0.0;
    m.c = 1.0;
    m.d = rng.uniform(0.1, 50.0);
  }
  const long long n = 1LL << rng.uniform_int(7, 12);
  const auto layout = static_cast<Layout>(rng.uniform_int(1, 3));
  auto p = make_problem(Resolution::Deg1, layout, n, models);
  const auto sol = solve_layout(p);
  EXPECT_NEAR(sol.predicted_total, layout_total(layout, sol.predicted_seconds),
              1e-3 * sol.predicted_total);
  for (Component c : kComponents) {
    EXPECT_GE(sol.nodes[index(c)], 1);
    EXPECT_LE(sol.nodes[index(c)], n);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LayoutRandomModels, ::testing::Range(0, 15));

// --- Differential sweep: the exact solve against brute force and B&B ---

std::vector<long long> counts_of(const Choices& ch, long long total) {
  if (!ch.allowed.empty()) return ch.allowed;
  std::vector<long long> v;
  for (long long n = ch.lo; n <= (ch.hi == 0 ? total : ch.hi); ++n)
    v.push_back(n);
  return v;
}

/// The layout's constraints on node counts already inside their choices.
bool fits(const LayoutProblem& p, const std::array<long long, 4>& n,
          const std::array<double, 4>& t) {
  const long long N = p.total_nodes;
  switch (p.layout) {
    case Layout::Hybrid:
      return n[0] + n[1] <= n[2] && n[2] + n[3] <= N &&
             !(std::fabs(t[0] - t[1]) > p.tsync);
    case Layout::SequentialAtmGroup:
      return std::max({n[0], n[1], n[2]}) + n[3] <= N;
    case Layout::FullySequential:
      return true;
  }
  return false;
}

std::array<double, 4> times(const LayoutProblem& p,
                            const std::array<long long, 4>& n) {
  std::array<double, 4> t{};
  for (std::size_t k = 0; k < 4; ++k)
    t[k] = p.models[k].eval(static_cast<double>(n[k]));
  return t;
}

bool feasible(const LayoutProblem& p, const std::array<long long, 4>& n) {
  for (Component c : kComponents) {
    const auto counts = counts_of(p.choices[index(c)], p.total_nodes);
    if (std::find(counts.begin(), counts.end(), n[index(c)]) == counts.end())
      return false;
  }
  return fits(p, n, times(p, n));
}

/// Every allocation, the tie rule of layouts.hpp applied literally: totals
/// within 1e-9 s tie, then the non-critical branch of the outer max, the
/// non-critical one of T_lnd/T_ice, and the counts (ocn, atm, lnd, ice).
/// Empty when nothing is feasible.
std::optional<std::array<long long, 4>> brute_force(const LayoutProblem& p) {
  std::array<std::vector<long long>, 4> counts;
  std::array<std::vector<double>, 4> secs;
  for (std::size_t k = 0; k < 4; ++k) {
    counts[k] = counts_of(p.choices[k], p.total_nodes);
    for (long long n : counts[k])
      secs[k].push_back(p.models[k].eval(static_cast<double>(n)));
  }
  using Key = std::tuple<double, double, long long, long long, long long,
                         long long>;
  std::vector<std::pair<double, Key>> all;
  for (std::size_t o = 0; o < counts[3].size(); ++o)
    for (std::size_t m = 0; m < counts[2].size(); ++m)
      for (std::size_t l = 0; l < counts[0].size(); ++l)
        for (std::size_t i = 0; i < counts[1].size(); ++i) {
          const std::array<long long, 4> n{counts[0][l], counts[1][i],
                                           counts[2][m], counts[3][o]};
          const std::array<double, 4> t{secs[0][l], secs[1][i], secs[2][m],
                                        secs[3][o]};
          if (!fits(p, n, t)) continue;
          double outer = 0.0, inner = 0.0;
          if (p.layout == Layout::Hybrid) {
            outer = std::min(std::max(t[1], t[0]) + t[2], t[3]);
            inner = std::min(t[0], t[1]);
          } else if (p.layout == Layout::SequentialAtmGroup) {
            outer = std::min(t[1] + t[0] + t[2], t[3]);
          }
          all.emplace_back(layout_total(p.layout, t),
                           Key(outer, inner, n[3], n[2], n[0], n[1]));
        }
  if (all.empty()) return std::nullopt;
  double best = all.front().first;
  for (const auto& e : all) best = std::min(best, e.first);
  std::optional<Key> pick;
  for (const auto& [total, key] : all)
    if (total <= best + 1e-9 && (!pick || key < *pick)) pick = key;
  const auto& [outer, inner, o, m, l, i] = *pick;
  return std::array<long long, 4>{l, i, m, o};
}

perf::Model random_convex(Rng& rng, double scale) {
  perf::Model m;
  m.a = scale * rng.uniform(0.05, 5.0);
  m.d = rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.0, 0.02 * scale);
  if (rng.uniform() < 0.5) {
    m.b = scale * rng.uniform(1e-4, 0.05);
    m.c = rng.uniform(1.0, 3.0);
  }
  return m;
}

/// A random subset of [lo, hi] with at least one member, ascending.
std::vector<long long> random_set(Rng& rng, long long lo, long long hi) {
  std::vector<long long> v;
  const double keep = rng.uniform(0.2, 0.8);
  for (long long n = lo; n <= hi; ++n)
    if (rng.uniform() < keep) v.push_back(n);
  if (v.empty()) v.push_back(rng.uniform_int(lo, hi));
  return v;
}

TEST(SolveLayoutDifferential, MatchesBruteForceOnSmallMachines) {
  // Every layout; set and range choices for every component (the ocean's
  // set is "constrained", its range [2, N] "unconstrained"); b = 0 and
  // b > 0 with c >= 1; finite T_sync on every layout (only layout 1 reads
  // it). The exact solve must reach the optimum and break ties as the
  // brute force does.
  std::size_t infeasible = 0, synced = 0, atm_past_argmin = 0;
  for (int draw = 0; draw < 360; ++draw) {
    Rng rng(static_cast<std::uint64_t>(draw) * 7919 + 17);
    LayoutProblem p;
    p.layout = static_cast<Layout>(draw % 3 + 1);
    p.total_nodes = rng.uniform_int(6, 24);
    const long long N = p.total_nodes;
    for (Component c : kComponents) {
      p.models[index(c)] = random_convex(rng, c == Component::Lnd ? 10.0 : 40.0);
      Choices& ch = p.choices[index(c)];
      if (rng.uniform() < 0.35) {
        ch.allowed = random_set(rng, c == Component::Ocn ? 2 : 1, N);
      } else {
        ch.lo = c == Component::Ocn ? 2 : rng.uniform_int(1, 2);
        ch.hi = rng.uniform() < 0.7 ? 0 : rng.uniform_int(ch.lo, N);
      }
    }
    if (rng.uniform() < 0.4) p.tsync = rng.uniform(0.0, 3.0);
    if (std::isfinite(p.tsync) && p.layout == Layout::Hybrid) ++synced;
    SCOPED_TRACE("draw " + std::to_string(draw) + ", layout " +
                 std::to_string(static_cast<int>(p.layout)) + ", N " +
                 std::to_string(N));
    const auto want = brute_force(p);
    if (!want) {
      ++infeasible;
      EXPECT_THROW(solve_layout(p), ContractViolation);
      continue;
    }
    const auto got = solve_layout(p);
    EXPECT_NEAR(got.predicted_total, layout_total(p.layout, times(p, *want)),
                1e-9);
    EXPECT_EQ(got.nodes, *want);
    EXPECT_TRUE(feasible(p, got.nodes));
    // Layout 1 with atm past its argmin: the pruned interval search.
    const auto atm_counts = counts_of(p.choices[2], N);
    const auto fastest = std::min_element(
        atm_counts.begin(), atm_counts.end(), [&](long long x, long long y) {
          return p.models[2].eval(static_cast<double>(x)) <
                 p.models[2].eval(static_cast<double>(y));
        });
    if (p.layout == Layout::Hybrid && got.nodes[2] > *fastest) ++atm_past_argmin;
  }
  // The sweep reaches the branches it is for.
  EXPECT_GT(synced, 40u);
  EXPECT_GT(infeasible, 0u);
  EXPECT_GT(atm_past_argmin, 5u);
}

TEST(SolveLayoutDifferential, NeverWorseThanBranchAndBound) {
  // The unseeded B&B of Table I's MINLP as the oracle at the paper's sizes:
  // ground-truth curves perturbed (c up to 1.3 where b > 0), every layout,
  // constrained and unconstrained ocean, T_sync off or >= 1 s (at 1
  // degree, where the grid stays small enough for the tree).
  for (int draw = 0; draw < 30; ++draw) {
    Rng rng(static_cast<std::uint64_t>(draw) * 104729 + 5);
    const Resolution r = draw % 2 == 0 ? Resolution::Deg1 : Resolution::EighthDeg;
    const long long sizes[2][3] = {{128, 512, 2048}, {8192, 32768, 40960}};
    const long long N = sizes[draw % 2][rng.uniform_int(0, 2)];
    std::array<perf::Model, 4> models;
    for (Component c : kComponents) {
      perf::Model m = ground_truth(r, c);
      m.a *= rng.uniform(0.7, 1.3);
      m.d *= rng.uniform(0.7, 1.3);
      if (m.b > 0.0) {
        m.b *= rng.uniform(0.5, 20.0);
        m.c = rng.uniform(1.0, 1.3);
      }
      models[index(c)] = m;
    }
    auto p = make_problem(r, static_cast<Layout>(draw / 2 % 3 + 1), N, models,
                          /*ocean_constrained=*/draw % 5 != 0);
    if (r == Resolution::Deg1 && N <= 512 && draw % 3 == 0)
      p.tsync = rng.uniform(1.0, 5.0);
    SCOPED_TRACE("draw " + std::to_string(draw) + ", N " + std::to_string(N));
    const auto exact = solve_layout(p);
    std::array<std::size_t, 4> vars{};
    const auto bnb = minlp::solve(build_layout_minlp(p, &vars));
    ASSERT_TRUE(bnb.has_solution);
    std::array<long long, 4> nodes{};
    for (std::size_t k = 0; k < 4; ++k) nodes[k] = std::llround(bnb.x[vars[k]]);
    EXPECT_LE(exact.predicted_total,
              layout_total(p.layout, times(p, nodes)) + 1e-9);
    EXPECT_TRUE(feasible(p, exact.nodes));
  }
}

TEST(SolveLayout, ReportsItsOwnTotal) {
  const auto p = make_problem(Resolution::Deg1, Layout::Hybrid, 2048,
                              simple_models());
  const auto sol = solve_layout(p);
  const auto t = times(p, sol.nodes);
  EXPECT_EQ(sol.predicted_seconds, t);
  EXPECT_EQ(sol.predicted_total, layout_total(Layout::Hybrid, t));
  EXPECT_GE(sol.seconds, 0.0);
}

TEST(SolveLayout, TsyncRowsAreExact) {
  // 512 nodes at 0.005 s: the tolerance binds (the free optimum's lnd and
  // ice are 0.0068 s apart), and the exact optimum keeps |T_lnd - T_ice|
  // within it.
  std::array<perf::Model, 4> truth;
  for (Component c : kComponents) truth[index(c)] = ground_truth(Resolution::Deg1, c);
  auto p = make_problem(Resolution::Deg1, Layout::Hybrid, 512, truth);
  p.tsync = 0.005;
  const auto sol = solve_layout(p);
  EXPECT_EQ(sol.nodes, (std::array<long long, 4>{43, 350, 434, 78}));
  EXPECT_NEAR(sol.predicted_total, 143.67, 0.005);
  EXPECT_LE(std::fabs(sol.predicted_seconds[0] - sol.predicted_seconds[1]),
            0.005);
}

TEST(SolveLayout, InfeasibleTsyncNamesToleranceAndNodes) {
  std::array<perf::Model, 4> truth;
  for (Component c : kComponents) truth[index(c)] = ground_truth(Resolution::Deg1, c);
  auto p = make_problem(Resolution::Deg1, Layout::Hybrid, 128, truth);
  p.tsync = 1e-6;
  try {
    solve_layout(p);
    FAIL() << "no lnd/ice pair meets a 1e-6 s tolerance on 128 nodes";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tsync 1e-06 s"), std::string::npos) << what;
    EXPECT_NE(what.find("128 nodes"), std::string::npos) << what;
  }
}

TEST(SolveLayout, TsyncAppliesToLayoutOneOnly) {
  // Layouts 2 and 3 run lnd and ice one after the other: no sync row, so a
  // finite tolerance changes neither their MINLP nor their solve.
  for (Layout l : {Layout::SequentialAtmGroup, Layout::FullySequential}) {
    auto p = make_problem(Resolution::Deg1, l, 512, simple_models());
    const auto free_model = build_layout_minlp(p);
    const auto free_sol = solve_layout(p);
    p.tsync = 0.001;
    const auto sync_model = build_layout_minlp(p);
    EXPECT_EQ(sync_model.num_vars(), free_model.num_vars());
    EXPECT_EQ(solve_layout(p).nodes, free_sol.nodes);
  }
  auto p = make_problem(Resolution::Deg1, Layout::Hybrid, 512, simple_models());
  const auto free_vars = build_layout_minlp(p).num_vars();
  p.tsync = 1.0;
  EXPECT_GT(build_layout_minlp(p).num_vars(), free_vars);
}

TEST(TsyncGrid, DenseThenGeometricWithinBounds) {
  const auto g = tsync_grid(1, 2048);
  ASSERT_GE(g.size(), 512u);
  for (long long n = 1; n <= 512; ++n) EXPECT_EQ(g[static_cast<std::size_t>(n - 1)], n);
  EXPECT_EQ(g.back(), 2048);
  EXPECT_TRUE(std::is_sorted(g.begin(), g.end()));
  EXPECT_EQ(std::adjacent_find(g.begin(), g.end()), g.end());
  // A floor above the dense part keeps every count inside [lo, hi].
  const auto high = tsync_grid(700, 900);
  ASSERT_FALSE(high.empty());
  EXPECT_GE(high.front(), 700);
  EXPECT_EQ(high.back(), 900);
}

}  // namespace
}  // namespace hslb::cesm

// Microbenchmarks of the bounded-variable simplex solver (the CLP stand-in
// under the branch-and-bound): dense random LPs, the sparse selector-heavy
// master problems the CESM models produce, and warm node re-solves of the
// outer-approximation LPs a branch-and-bound worker runs all search long.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_json_main.hpp"
#include "common/rng.hpp"
#include "hslb/budget.hpp"
#include "lp/simplex.hpp"
#include "minlp/bnb.hpp"
#include "minlp/kelley.hpp"

namespace {

using namespace hslb;
using namespace hslb::lp;

Model random_dense(std::size_t vars, std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  for (std::size_t j = 0; j < vars; ++j)
    m.add_variable(0.0, rng.uniform(1.0, 10.0), rng.uniform(-1.0, 1.0));
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Coeff> coeffs;
    for (std::size_t j = 0; j < vars; ++j)
      coeffs.push_back({j, rng.uniform(-1.0, 1.0)});
    m.add_constraint(std::move(coeffs), -kInf,
                     rng.uniform(0.5, static_cast<double>(vars) / 4.0));
  }
  return m;
}

/// SOS-selector structure: k binaries, pick-one row, two link rows — the
/// shape of the CESM ocean/atmosphere sets.
Model selector_lp(std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  std::vector<Coeff> ones, nodes, times;
  for (std::size_t i = 0; i < k; ++i) {
    const auto z = m.add_variable(0.0, 1.0, 0.0);
    ones.push_back({z, 1.0});
    nodes.push_back({z, static_cast<double>(i + 1)});
    times.push_back({z, 5000.0 / static_cast<double>(i + 1)});
  }
  const auto n = m.add_variable(1.0, static_cast<double>(k), 0.0);
  const auto t = m.add_variable(0.0, 10000.0, 1.0);
  m.add_constraint(ones, 1.0, 1.0);
  nodes.push_back({n, -1.0});
  m.add_constraint(nodes, 0.0, 0.0);
  times.push_back({t, -1.0});
  m.add_constraint(times, 0.0, 0.0);
  m.add_constraint({{n, 1.0}}, -kInf, static_cast<double>(k) * 0.6);
  return m;
}

void BM_DenseRandomLp(benchmark::State& state) {
  const auto vars = static_cast<std::size_t>(state.range(0));
  const auto m = random_dense(vars, vars / 2, 42);
  for (auto _ : state) {
    const auto sol = solve(m);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_DenseRandomLp)->Arg(16)->Arg(64)->Arg(128);

/// The kernel_flop_reduction counter is the flops-per-pivot reduction the
/// sparse FTRAN/BTRAN kernels deliver over dense ones on the same solves.
void BM_SelectorLp(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto m = selector_lp(k, 7);
  std::size_t iters = 0;
  SolveStats stats;
  for (auto _ : state) {
    const auto sol = solve(m);
    iters = sol.iterations;
    stats = sol.stats;
    benchmark::DoNotOptimize(sol.objective);
  }
  state.counters["simplex_iters"] = static_cast<double>(iters);
  state.counters["kernel_flop_reduction"] = stats.flop_reduction();
}
BENCHMARK(BM_SelectorLp)->Arg(241)->Arg(1639)->Unit(benchmark::kMillisecond);

/// Branch-style re-solve: tighten the node-count variable's upper bound at
/// the parent optimum and re-solve, either cold or warm from the parent
/// basis — the exact pattern of a branch-and-bound child node.
void BM_SelectorLpResolve(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const bool warm = state.range(1) != 0;
  const auto m = selector_lp(k, 7);
  const auto parent = solve(m);
  Model child = m;
  child.set_col_upper(k, std::floor(parent.x[k] - 0.5));  // branch down
  Options opt;
  if (warm) opt.warm_start = &parent.basis;
  std::size_t pivots = 0;
  for (auto _ : state) {
    const auto sol = solve(child, opt);
    pivots = sol.iterations;
    benchmark::DoNotOptimize(sol.objective);
  }
  state.counters["pivots"] = static_cast<double>(pivots);
}
BENCHMARK(BM_SelectorLpResolve)
    ->Args({1639, 0})
    ->Args({1639, 1})
    ->Unit(benchmark::kMillisecond);

/// Root outer-approximation relaxation of a min-max budget MINLP over
/// `tasks` seeded power-law tasks on 8 nodes per task (build_budget_minlp,
/// seeded by seed_bnb_options as every budget search is, then
/// solve_relaxation): the linear budget row plus the seed's and the Kelley
/// rounds' cuts, over the node counts and the makespan. 8, 16 and 28 tasks
/// give LPs of 26, 49 and 85 rows.
struct RootLp {
  Model model;
  Basis basis;
  std::vector<double> x;
};

RootLp root_oa_lp(std::size_t tasks) {
  Rng rng(20261019 + tasks);
  const long long budget = 8 * static_cast<long long>(tasks);
  std::vector<BudgetTask> ts;
  for (std::size_t i = 0; i < tasks; ++i) {
    BudgetTask t;
    t.name = "t" + std::to_string(i);
    t.model = perf::Model{rng.uniform(50.0, 500.0), rng.uniform(0.0, 0.01),
                          rng.uniform(1.0, 2.0), rng.uniform(0.1, 2.0)};
    t.max_nodes = budget;
    ts.push_back(std::move(t));
  }
  const auto mm = build_budget_minlp(ts, budget, Objective::MinMax);
  minlp::BnbOptions bnb;
  seed_bnb_options(bnb, ts, budget, Objective::MinMax, {});
  minlp::CutPool pool;
  for (const auto& point : bnb.seed_points)
    for (std::size_t k = 0; k < mm.nonlinear().size(); ++k)
      pool.insert(minlp::make_oa_cut(mm, k, point));
  const auto root = minlp::solve_relaxation(mm, pool);
  return {minlp::build_lp_relaxation(mm, pool,
                                     minlp::BoundOverrides(mm.num_vars())),
          root.basis, root.x};
}

/// Warm node re-solve of a root OA LP from its optimal basis. Arguments:
/// the task count; 0 re-solves the LP unchanged (0 pivots), 1 with the
/// largest node count branched down (a bound change the dual simplex
/// repairs); 1 reuses one lp::Solver across iterations, as a
/// branch-and-bound worker does, 0 calls lp::solve, which builds a fresh
/// engine per call.
void BM_OaWarmResolve(benchmark::State& state) {
  const auto root = root_oa_lp(static_cast<std::size_t>(state.range(0)));
  Model lp = root.model;
  if (state.range(1) != 0) {
    std::size_t v = 0;
    for (std::size_t j = 1; j + 1 < root.x.size(); ++j)
      if (root.x[j] > root.x[v]) v = j;
    lp.set_col_upper(v, std::floor(root.x[v] - 0.5));
  }
  Options opt;
  opt.warm_start = &root.basis;
  const bool reuse = state.range(2) != 0;
  Solver engine;
  Solution sol;
  for (auto _ : state) {
    sol = reuse ? engine.solve(lp, opt) : solve(lp, opt);
    benchmark::DoNotOptimize(sol.objective);
  }
  state.counters["rows"] = static_cast<double>(lp.num_rows());
  state.counters["cols"] = static_cast<double>(lp.num_cols());
  state.counters["pivots"] = static_cast<double>(sol.iterations);
  state.counters["refactorizations"] =
      static_cast<double>(sol.stats.refactorizations);
}
BENCHMARK(BM_OaWarmResolve)
    ->ArgsProduct({{8, 16, 28}, {0, 1}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return hslb::bench::run_benchmarks_with_json(argc, argv, "BENCH_solver.json");
}

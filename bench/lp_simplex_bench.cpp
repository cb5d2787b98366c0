// Microbenchmarks of the bounded-variable simplex solver (the CLP stand-in
// under the branch-and-bound): dense random LPs and the sparse
// selector-heavy master problems the CESM models produce.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_json_main.hpp"
#include "common/rng.hpp"
#include "lp/simplex.hpp"

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

}  // namespace

int main(int argc, char** argv) {
  return hslb::bench::run_benchmarks_with_json(argc, argv, "BENCH_solver.json");
}

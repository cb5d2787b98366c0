// §III-E claim: "the MINLP for 40960 nodes took less than 60 seconds to
// solve on one core." This microbenchmark times the layout-1 model (SOS
// ocean set; atmosphere set at 1 degree) as the partition grows to all of
// Intrepid (40,960 nodes), on both Solve paths:
//
//   <instance>/exact  cesm::solve_layout, the exact structured solve the
//                     pipeline runs;
//   <instance>/bnb    minlp::solve(build_layout_minlp(p)), the LP/NLP
//                     branch-and-bound the paper runs (the §III-E column).
//
// Before timing, every instance is solved both ways and the run exits 1
// when the exact total and the B&B allocation's total differ by more than
// 1e-9 * max(1, |T|).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench/bench_json_main.hpp"
#include "cesm/layouts.hpp"
#include "common/table.hpp"
#include "minlp/bnb.hpp"

namespace {

using namespace hslb;
using namespace hslb::cesm;

struct Instance {
  const char* name;
  Resolution resolution;
  long long nodes;
  bool ocean_constrained;
};

// 40,960 = the full Intrepid machine (the paper's < 60 s data point).
constexpr Instance kInstances[] = {
    {"BM_LayoutSolveDeg1", Resolution::Deg1, 128, true},
    {"BM_LayoutSolveDeg1", Resolution::Deg1, 2048, true},
    {"BM_LayoutSolveEighth", Resolution::EighthDeg, 8192, true},
    {"BM_LayoutSolveEighth", Resolution::EighthDeg, 32768, true},
    {"BM_LayoutSolveEighth", Resolution::EighthDeg, 40960, true},
    {"BM_LayoutSolveUnconstrainedOcean", Resolution::EighthDeg, 32768, false},
};

LayoutProblem problem(const Instance& in) {
  std::array<perf::Model, 4> m;
  for (Component c : kComponents) m[index(c)] = ground_truth(in.resolution, c);
  return make_problem(in.resolution, Layout::Hybrid, in.nodes, m,
                      in.ocean_constrained);
}

/// The layout total of the B&B incumbent's node counts.
double bnb_total(const LayoutProblem& p, const minlp::BnbResult& bnb,
                 const std::array<std::size_t, 4>& n_vars) {
  std::array<double, 4> t{};
  for (Component c : kComponents) {
    const auto i = index(c);
    t[i] = p.models[i].eval(std::round(bnb.x[n_vars[i]]));
  }
  return layout_total(p.layout, t);
}

/// Solves every instance both ways; false when any pair of totals differs.
bool cross_check() {
  Table t({"instance", "exact total s", "bnb total s", "bnb nodes",
           "exact ms", "bnb ms"});
  bool ok = true;
  for (const Instance& in : kInstances) {
    const auto p = problem(in);
    const auto exact = solve_layout(p);
    std::array<std::size_t, 4> n_vars{};
    const auto bnb = minlp::solve(build_layout_minlp(p, &n_vars));
    const double bnb_t = bnb.has_solution ? bnb_total(p, bnb, n_vars) : NAN;
    const double tol = 1e-9 * std::max(1.0, std::fabs(exact.predicted_total));
    if (!(std::fabs(exact.predicted_total - bnb_t) <= tol)) {
      std::printf("MISMATCH %s/%lld: exact %.12g s, bnb %.12g s\n", in.name,
                  in.nodes, exact.predicted_total, bnb_t);
      ok = false;
    }
    t.add_row({std::string(in.name) + "/" + std::to_string(in.nodes),
               Table::num(exact.predicted_total, 6), Table::num(bnb_t, 6),
               Table::num(static_cast<long long>(bnb.nodes)),
               Table::num(1e3 * exact.seconds, 3),
               Table::num(1e3 * bnb.seconds, 3)});
  }
  std::printf("%s\n", t.str().c_str());
  return ok;
}

void register_benchmarks() {
  for (const Instance& in : kInstances) {
    const std::string base = std::string(in.name) + "/" + std::to_string(in.nodes);
    benchmark::RegisterBenchmark(
        (base + "/exact").c_str(),
        [in](benchmark::State& state) {
          const auto p = problem(in);
          for (auto _ : state)
            benchmark::DoNotOptimize(solve_layout(p).predicted_total);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (base + "/bnb").c_str(),
        [in](benchmark::State& state) {
          const auto p = problem(in);
          std::size_t nodes = 0;
          for (auto _ : state) {
            const auto bnb = minlp::solve(build_layout_minlp(p));
            nodes = bnb.nodes;
            benchmark::DoNotOptimize(bnb.objective);
          }
          state.counters["bnb_nodes"] = static_cast<double>(nodes);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (!cross_check()) return 1;
  register_benchmarks();
  return hslb::bench::run_benchmarks_with_json(argc, argv, "BENCH_solver.json");
}

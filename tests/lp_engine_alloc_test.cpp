// Heap traffic of a reused lp::Solver, counted by replacing the global
// operator new (hence a test binary of its own). After one warm-up solve, a
// 0-pivot warm re-solve of a root outer-approximation LP may allocate the
// returned Solution's four vectors (x, duals, basis columns, basis rows) and
// nothing else, whatever the LP's size.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hslb/budget.hpp"
#include "lp/simplex.hpp"
#include "minlp/bnb.hpp"
#include "minlp/kelley.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hslb {
namespace {

/// Root OA relaxation of a greedy-seeded min-max budget MINLP over `tasks`
/// power-law tasks on 8 nodes per task, with its optimal basis (the
/// lp_simplex_bench BM_OaWarmResolve inputs: 8 and 28 tasks give 26 and 85
/// rows).
std::pair<lp::Model, lp::Basis> root_oa_lp(std::size_t tasks) {
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
  auto root = minlp::solve_relaxation(mm, pool);
  return {minlp::build_lp_relaxation(mm, pool,
                                     minlp::BoundOverrides(mm.num_vars())),
          std::move(root.basis)};
}

TEST(LpEngineAlloc, ZeroPivotWarmResolveAllocatesOnlyTheSolution) {
  for (const std::size_t tasks : {8, 28}) {
    const auto [model, basis] = root_oa_lp(tasks);
    ASSERT_GE(model.num_rows(), 25u);
    lp::Options opt;
    opt.warm_start = &basis;
    lp::Solver engine;
    const lp::Solution warmup = engine.solve(model, opt);
    ASSERT_EQ(warmup.status, lp::Status::Optimal);
    ASSERT_TRUE(warmup.warm_started);
    ASSERT_EQ(warmup.iterations, 0u);

    const std::size_t before = g_allocations.load();
    const lp::Solution again = engine.solve(model, opt);
    const std::size_t allocations = g_allocations.load() - before;
    EXPECT_EQ(allocations, 4u) << model.num_rows() << " rows";
    EXPECT_EQ(again.iterations, 0u);
    EXPECT_EQ(again.x, warmup.x);

    // A fresh engine per solve (lp::solve) allocates its whole storage.
    const std::size_t fresh_before = g_allocations.load();
    const lp::Solution fresh = lp::solve(model, opt);
    EXPECT_GT(g_allocations.load() - fresh_before, 4 * model.num_rows());
    EXPECT_EQ(fresh.x, again.x);
  }
}

}  // namespace
}  // namespace hslb

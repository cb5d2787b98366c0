#include "hslb/budget.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "minlp/bnb.hpp"

namespace hslb {
namespace {

BudgetTask task(const std::string& name, double a, double d, long long max_nodes) {
  return BudgetTask{name, perf::Model{a, 0.0, 1.0, d}, 1, max_nodes};
}

TEST(MinMax, TwoIdenticalTasksSplitEvenly) {
  const std::vector<BudgetTask> tasks{task("a", 100, 0, 64), task("b", 100, 0, 64)};
  const auto alloc = solve_min_max(tasks, 64);
  EXPECT_EQ(alloc.tasks[0].nodes, 32);
  EXPECT_EQ(alloc.tasks[1].nodes, 32);
  EXPECT_NEAR(alloc.predicted_total, 100.0 / 32.0, 1e-12);
}

TEST(MinMax, ProportionalToWork) {
  // Work 300 vs 100 with pure a/n scaling: optimal split ~3:1.
  const std::vector<BudgetTask> tasks{task("big", 300, 0, 128),
                                      task("small", 100, 0, 128)};
  const auto alloc = solve_min_max(tasks, 100);
  EXPECT_NEAR(static_cast<double>(alloc.tasks[0].nodes), 75.0, 1.0);
  EXPECT_NEAR(static_cast<double>(alloc.tasks[1].nodes), 25.0, 1.0);
}

TEST(MinMax, SerialFloorStopsAllocation) {
  // One task is all serial: feeding it nodes is pointless, so the greedy
  // stops once it dominates, leaving budget unused.
  const std::vector<BudgetTask> tasks{task("serial", 0.0, 50.0, 1000),
                                      task("scalable", 100.0, 0.0, 1000)};
  const auto alloc = solve_min_max(tasks, 1000);
  EXPECT_NEAR(alloc.predicted_total, 50.0, 1e-9);
  // scalable got enough to drop below 50 s, then the greedy stopped.
  EXPECT_LE(alloc.find("scalable").predicted_seconds, 50.0 + 1e-9);
  EXPECT_LT(alloc.total_nodes(), 1000);
}

TEST(MinMax, RespectsMaxNodes) {
  std::vector<BudgetTask> tasks{task("a", 1000, 0, 8), task("b", 10, 0, 64)};
  const auto alloc = solve_min_max(tasks, 64);
  EXPECT_LE(alloc.find("a").nodes, 8);
}

TEST(MinMax, RequiresFeasibleMinimums) {
  std::vector<BudgetTask> tasks{task("a", 1, 0, 4), task("b", 1, 0, 4)};
  EXPECT_THROW(solve_min_max(tasks, 1), ContractViolation);
}

TEST(MinSum, PrefersHighestMarginalGain) {
  // min-sum pours nodes where the absolute gain is largest: the big task.
  const std::vector<BudgetTask> tasks{task("big", 1000, 0, 100),
                                      task("small", 10, 0, 100)};
  const auto alloc = solve_min_sum(tasks, 20);
  EXPECT_GT(alloc.find("big").nodes, alloc.find("small").nodes);
}

TEST(MinSum, StopsWhenNoGain) {
  const std::vector<BudgetTask> tasks{task("serial", 0, 5, 100)};
  const auto alloc = solve_min_sum(tasks, 100);
  EXPECT_EQ(alloc.tasks[0].nodes, 1);  // extra nodes gain nothing
}

TEST(MaxMin, UsesExchangeToEqualize) {
  const std::vector<BudgetTask> tasks{task("a", 100, 0, 64), task("b", 100, 0, 64)};
  const auto alloc = solve_max_min(tasks, 64);
  // Any split gives min(T_a, T_b) maximized at the even split.
  EXPECT_EQ(alloc.tasks[0].nodes + alloc.tasks[1].nodes, 64);
  EXPECT_NEAR(alloc.predicted_total, 100.0 / 32.0, 0.2);
}

TEST(Objectives, EvaluateObjectiveSemantics) {
  const std::vector<BudgetTask> tasks{task("a", 100, 0, 64), task("b", 50, 0, 64)};
  const std::vector<long long> nodes{10, 10};  // T = 10, 5
  EXPECT_DOUBLE_EQ(evaluate_objective(tasks, nodes, Objective::MinMax), 10.0);
  EXPECT_DOUBLE_EQ(evaluate_objective(tasks, nodes, Objective::MaxMin), 5.0);
  EXPECT_DOUBLE_EQ(evaluate_objective(tasks, nodes, Objective::MinSum), 15.0);
}

TEST(Objectives, MinMaxBeatsMinSumOnMakespan) {
  // §III-D: the min-sum objective is "obviously out of consideration";
  // check it indeed yields a worse makespan on a diverse system.
  const std::vector<BudgetTask> tasks{task("big", 500, 1.0, 256),
                                      task("mid", 100, 0.5, 256),
                                      task("small", 10, 0.1, 256)};
  const auto mm = solve_min_max(tasks, 64);
  const auto ms = solve_min_sum(tasks, 64);
  std::vector<long long> ms_nodes;
  for (const auto& t : ms.tasks) ms_nodes.push_back(t.nodes);
  const double ms_makespan =
      evaluate_objective(tasks, ms_nodes, Objective::MinMax);
  EXPECT_LE(mm.predicted_total, ms_makespan + 1e-9);
}

TEST(SolveBudget, DispatchesOnObjective) {
  const std::vector<BudgetTask> tasks{task("a", 100, 0, 64), task("b", 50, 0, 64)};
  EXPECT_EQ(solve_budget(tasks, 32, Objective::MinMax).predicted_total,
            solve_min_max(tasks, 32).predicted_total);
  EXPECT_EQ(solve_budget(tasks, 32, Objective::MinSum).predicted_total,
            solve_min_sum(tasks, 32).predicted_total);
  EXPECT_EQ(solve_budget(tasks, 32, Objective::MaxMin).predicted_total,
            solve_max_min(tasks, 32).predicted_total);
}

// ---------------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------------

std::vector<BudgetTask> random_tasks(Rng& rng, long long max_nodes, int f) {
  std::vector<BudgetTask> tasks;
  for (int i = 0; i < f; ++i) {
    perf::Model m;
    m.a = rng.uniform(10.0, 2000.0);
    m.b = rng.uniform() < 0.5 ? 0.0 : rng.uniform(1e-6, 1e-3);
    m.c = rng.uniform(1.0, 1.6);
    m.d = rng.uniform(0.0, 5.0);
    tasks.push_back(BudgetTask{"t" + std::to_string(i), m, 1, max_nodes});
  }
  return tasks;
}

std::vector<BudgetTask> random_tasks(Rng& rng, long long max_nodes) {
  return random_tasks(rng, max_nodes, static_cast<int>(rng.uniform_int(2, 5)));
}

class MinMaxExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(MinMaxExhaustive, GreedyMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2711 + 5);
  const long long budget = rng.uniform_int(4, 18);
  auto tasks = random_tasks(rng, budget);
  if (static_cast<long long>(tasks.size()) > budget) return;

  // Brute force over all allocations summing to <= budget.
  double best = 1e300;
  std::vector<long long> nodes(tasks.size(), 1);
  std::function<void(std::size_t, long long)> rec = [&](std::size_t i,
                                                        long long left) {
    if (i == tasks.size()) {
      best = std::min(best, evaluate_objective(tasks, nodes, Objective::MinMax));
      return;
    }
    const long long remaining_min =
        static_cast<long long>(tasks.size() - i - 1);
    for (long long n = 1; n <= left - remaining_min; ++n) {
      nodes[i] = n;
      rec(i + 1, left - n);
    }
  };
  rec(0, budget);

  const auto greedy = solve_min_max(tasks, budget);
  EXPECT_NEAR(greedy.predicted_total, best, 1e-9 * (1.0 + best));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MinMaxExhaustive, ::testing::Range(0, 40));

class MaxMinExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinExhaustive, ExchangeHeuristicNearBruteForce) {
  // max-min is a documented heuristic (local search); require it to land
  // within a few percent of the exhaustive optimum on small instances.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 33391 + 2);
  const long long budget = rng.uniform_int(4, 14);
  auto tasks = random_tasks(rng, budget);
  if (static_cast<long long>(tasks.size()) > budget) return;

  // Brute force over allocations spending the budget exactly (the max-min
  // convention; see solve_max_min's doc comment).
  double best = -1e300;
  std::vector<long long> nodes(tasks.size(), 1);
  std::function<void(std::size_t, long long)> rec = [&](std::size_t i,
                                                        long long left) {
    if (i + 1 == tasks.size()) {
      nodes[i] = left;
      best = std::max(best, evaluate_objective(tasks, nodes, Objective::MaxMin));
      return;
    }
    const long long remaining_min =
        static_cast<long long>(tasks.size() - i - 1);
    for (long long n = 1; n <= left - remaining_min; ++n) {
      nodes[i] = n;
      rec(i + 1, left - n);
    }
  };
  rec(0, budget);

  const auto heuristic = solve_max_min(tasks, budget);
  EXPECT_GE(heuristic.predicted_total, 0.90 * best);
  EXPECT_LE(heuristic.predicted_total, best + 1e-9);  // never exceeds optimum
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaxMinExhaustive, ::testing::Range(0, 30));

TEST(BudgetVsBnb, GreedySeededAndUnseededSearchesAgree) {
  // FMO-6 as a differential sweep: the exact greedy, an unseeded
  // branch-and-bound and the BudgetSolver, whose search starts from the
  // greedy, reach one objective, and the seeded searches solve far fewer
  // node LPs in total. Instances 0-24 draw 2-5 power laws on 6-40 nodes,
  // 25-28 draw 8-20 on 3-5 nodes per task; a third of them pin a comm slope
  // and a third a memory row on every other task. Min-sum runs up to 12
  // tasks: past that even the seeded search needs hundreds of nodes
  // (seconds) to prove its optimum. The large draws stop at 20 tasks: a
  // 24-task comm-slope draw's unseeded search alone takes over 2 s. Node
  // totals are not compared: without dives the seeded tree gets no cuts
  // away from the greedy and can be the larger one (1,040 against 828
  // nodes here).
  std::size_t seeded_lps = 0, unseeded_lps = 0;
  constexpr int kLarge[] = {8, 12, 16, 20};
  for (int instance = 0; instance < 29; ++instance) {
    Rng rng(static_cast<std::uint64_t>(instance) * 15013 + 1);
    long long budget = 0;
    std::vector<BudgetTask> tasks;
    if (instance < 25) {
      budget = rng.uniform_int(6, 40);
      tasks = random_tasks(rng, budget);
    } else {
      const int count = kLarge[instance - 25];
      budget = count * rng.uniform_int(3, 5);
      tasks = random_tasks(rng, budget, count);
    }
    const auto count = static_cast<long long>(tasks.size());
    for (std::size_t f = 1; f < tasks.size(); f += 2) {
      if (instance % 3 == 1)
        tasks[f].model.pin_comm(rng.uniform(0.01, 0.5), 1.0 / 0.425);
      // Memory floors of at most budget / count nodes keep it feasible.
      if (instance % 3 == 2)
        tasks[f].model.pin_memory(
            rng.uniform(1.0, 2.0 * static_cast<double>(budget / count)), 2.0,
            1.5);
    }
    SCOPED_TRACE("instance " + std::to_string(instance) + ": " +
                 std::to_string(count) + " tasks on " +
                 std::to_string(budget) + " nodes");

    for (Objective obj : {Objective::MinMax, Objective::MinSum}) {
      if (obj == Objective::MinSum && count > 12) continue;
      SCOPED_TRACE(to_string(obj));
      const auto greedy = solve_budget(tasks, budget, obj);
      const auto unseeded = minlp::solve(build_budget_minlp(tasks, budget, obj));
      ASSERT_EQ(unseeded.status, minlp::BnbStatus::Optimal);
      BudgetSolver solver(obj, true, minlp::BnbOptions{}, 1.0, 0.0);
      const auto seeded = solver.solve(tasks, budget);
      ASSERT_EQ(seeded.solver.status, "optimal");
      EXPECT_FALSE(solver.seed_accepted());  // the greedy alone is cold

      const auto unseeded_alloc = allocation_from_minlp(tasks, unseeded.x, obj);
      const double want = greedy.predicted_total;
      EXPECT_NEAR(seeded.allocation.predicted_total, want, 1e-9 * (1.0 + want));
      EXPECT_NEAR(unseeded_alloc.predicted_total, want, 1e-9 * (1.0 + want));
      for (const Allocation* alloc :
           {&greedy, &seeded.allocation, &unseeded_alloc}) {
        EXPECT_LE(alloc->total_nodes(), budget);
        for (std::size_t f = 0; f < tasks.size(); ++f) {
          EXPECT_GE(alloc->tasks[f].nodes,
                    std::max(tasks[f].min_nodes,
                             tasks[f].model.min_feasible_nodes()));
          EXPECT_LE(alloc->tasks[f].nodes, tasks[f].max_nodes);
        }
      }
      seeded_lps += seeded.solver.lp_solves;
      unseeded_lps += unseeded.lp_solves;
    }
  }
  EXPECT_LT(2 * seeded_lps, unseeded_lps);
}

TEST(BudgetMinlp, RejectsMaxMin) {
  const std::vector<BudgetTask> tasks{task("a", 10, 0, 8), task("b", 10, 0, 8)};
  EXPECT_THROW(build_budget_minlp(tasks, 8, Objective::MaxMin),
               ContractViolation);
}

}  // namespace
}  // namespace hslb

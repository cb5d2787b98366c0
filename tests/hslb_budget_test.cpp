#include "hslb/budget.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>

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

/// Pins the BudgetVsBnb machine charges on every other task: a comm slope
/// when `kind` is 1, a memory row when it is 2 (none otherwise). Memory
/// floors of at most budget / count nodes keep the instance feasible.
void pin_charges(Rng& rng, std::vector<BudgetTask>& tasks, long long budget,
                 int kind) {
  const auto count = static_cast<long long>(tasks.size());
  for (std::size_t f = 1; f < tasks.size(); f += 2) {
    if (kind == 1)
      tasks[f].model.pin_comm(rng.uniform(0.01, 0.5), 1.0 / 0.425);
    if (kind == 2)
      tasks[f].model.pin_memory(
          rng.uniform(1.0, 2.0 * static_cast<double>(budget / count)), 2.0,
          1.5);
  }
}

long long floor_of(const BudgetTask& t) {
  return std::max(t.min_nodes, t.model.min_feasible_nodes());
}

std::vector<long long> nodes_of(const Allocation& alloc) {
  std::vector<long long> nodes;
  for (const auto& t : alloc.tasks) nodes.push_back(t.nodes);
  return nodes;
}

TEST(BudgetVsBnb, GreedySeededAndUnseededSearchesAgree) {
  // FMO-6 as a differential sweep: the exact greedy, an unseeded
  // branch-and-bound and a search seeded with the greedy (seed_bnb_options,
  // as the allocation service's solve-kind requests run it) reach one
  // objective, the seeded searches solve far fewer node LPs in total, and
  // the BudgetSolver certifies the greedy without a tree. Instances 0-24
  // draw 2-5 power laws on 6-40 nodes, 25-28 draw 8-20 on 3-5 nodes per
  // task; a third of them pin a comm slope and a third a memory row on
  // every other task. Min-sum runs up to 12 tasks: past that even the
  // seeded search needs hundreds of nodes (seconds) to prove its optimum.
  // The large draws stop at 20 tasks: a 24-task comm-slope draw's unseeded
  // search alone takes over 2 s. Node totals are not compared: without
  // dives the seeded tree gets no cuts away from the greedy and can be the
  // larger one (1,040 against 828 nodes here).
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
    pin_charges(rng, tasks, budget, instance % 3);
    SCOPED_TRACE("instance " + std::to_string(instance) + ": " +
                 std::to_string(count) + " tasks on " +
                 std::to_string(budget) + " nodes");

    for (Objective obj : {Objective::MinMax, Objective::MinSum}) {
      if (obj == Objective::MinSum && count > 12) continue;
      SCOPED_TRACE(to_string(obj));
      const auto greedy = solve_budget(tasks, budget, obj);
      const auto model = build_budget_minlp(tasks, budget, obj);
      const auto unseeded = minlp::solve(model);
      ASSERT_EQ(unseeded.status, minlp::BnbStatus::Optimal);
      minlp::BnbOptions seeded_options;
      // The greedy alone is cold.
      EXPECT_FALSE(seed_bnb_options(seeded_options, tasks, budget, obj, {}));
      const auto seeded = minlp::solve(model, seeded_options);
      ASSERT_EQ(seeded.status, minlp::BnbStatus::Optimal);
      const BudgetSolver solver(obj, minlp::BnbOptions{}.gap_tol, 1.0, 0.0);
      const auto certified = solver.solve(tasks, budget);
      EXPECT_TRUE(certified.solver.certified);
      EXPECT_EQ(certified.solver.status, "optimal");
      EXPECT_EQ(certified.solver.nodes, 0u);
      EXPECT_EQ(nodes_of(certified.allocation), nodes_of(greedy));

      const auto seeded_alloc = allocation_from_minlp(tasks, seeded.x, obj);
      const auto unseeded_alloc = allocation_from_minlp(tasks, unseeded.x, obj);
      const double want = greedy.predicted_total;
      EXPECT_NEAR(seeded_alloc.predicted_total, want, 1e-9 * (1.0 + want));
      EXPECT_NEAR(unseeded_alloc.predicted_total, want, 1e-9 * (1.0 + want));
      for (const Allocation* alloc :
           {&greedy, &seeded_alloc, &unseeded_alloc}) {
        EXPECT_LE(alloc->total_nodes(), budget);
        for (std::size_t f = 0; f < tasks.size(); ++f) {
          EXPECT_GE(alloc->tasks[f].nodes, floor_of(tasks[f]));
          EXPECT_LE(alloc->tasks[f].nodes, tasks[f].max_nodes);
        }
      }
      seeded_lps += seeded.lp_solves;
      unseeded_lps += unseeded.lp_solves;
    }
  }
  EXPECT_LT(2 * seeded_lps, unseeded_lps);
}

/// Best objective over every allocation inside the tasks' boxes within
/// `budget` (exhaustive; small instances only).
double brute_force(std::span<const BudgetTask> tasks, long long budget,
                   Objective obj) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<long long> nodes(tasks.size());
  std::function<void(std::size_t, long long)> rec = [&](std::size_t i,
                                                        long long left) {
    if (i == tasks.size()) {
      best = std::min(best, evaluate_objective(tasks, nodes, obj));
      return;
    }
    long long later = 0;
    for (std::size_t g = i + 1; g < tasks.size(); ++g) later += floor_of(tasks[g]);
    for (long long n = floor_of(tasks[i]);
         n <= std::min(tasks[i].max_nodes, left - later); ++n) {
      nodes[i] = n;
      rec(i + 1, left - n);
    }
  };
  rec(0, budget);
  return best;
}

TEST(BudgetCertificate, AcceptsEveryGreedyAndNothingWorse) {
  // Adversarial sweep: 2-4 tasks on 4-16 nodes drawn as BudgetVsBnb draws
  // them, a third with comm slopes and a third with memory rows, under both
  // objectives. The certificate must accept every exact greedy and never
  // accept an allocation worse than the optimum by more than gap_tol; the
  // perturbations are one node moved between two tasks, one node removed,
  // and the greedy of budget B checked against B + 1. Brute force is the
  // oracle.
  const double gap_tol = minlp::BnbOptions{}.gap_tol;
  std::size_t greedies = 0, accepted = 0, refused = 0;
  for (int instance = 0; instance < 400; ++instance) {
    Rng rng(static_cast<std::uint64_t>(instance) * 7703 + 11);
    const long long budget = rng.uniform_int(4, 16);
    auto tasks = random_tasks(
        rng, budget, static_cast<int>(rng.uniform_int(2, std::min(4LL, budget))));
    pin_charges(rng, tasks, budget, instance % 3);
    SCOPED_TRACE("instance " + std::to_string(instance) + ": " +
                 std::to_string(tasks.size()) + " tasks on " +
                 std::to_string(budget) + " nodes");

    for (Objective obj : {Objective::MinMax, Objective::MinSum}) {
      SCOPED_TRACE(to_string(obj));
      const double best = brute_force(tasks, budget, obj);
      const auto greedy = nodes_of(solve_budget(tasks, budget, obj));
      EXPECT_NEAR(evaluate_objective(tasks, greedy, obj), best,
                  1e-9 * (1.0 + best));
      EXPECT_TRUE(certify_budget(tasks, budget, obj, greedy, gap_tol));
      ++greedies;

      // Every accepted perturbation must be within gap_tol of the optimum.
      auto check = [&](const std::vector<long long>& nodes, long long b,
                       double optimum) {
        if (certify_budget(tasks, b, obj, nodes, gap_tol)) {
          ++accepted;
          EXPECT_LE(evaluate_objective(tasks, nodes, obj), optimum + gap_tol);
        } else {
          ++refused;
        }
      };
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (greedy[i] <= floor_of(tasks[i])) continue;
        auto removed = greedy;
        --removed[i];
        check(removed, budget, best);
        for (std::size_t j = 0; j < tasks.size(); ++j) {
          if (j == i || greedy[j] >= tasks[j].max_nodes) continue;
          auto moved = removed;
          ++moved[j];
          check(moved, budget, best);
        }
      }
      check(greedy, budget + 1, brute_force(tasks, budget + 1, obj));
    }
  }
  EXPECT_EQ(greedies, 800u);
  // Most perturbations are strictly worse, so most are refused.
  EXPECT_GT(refused, accepted);
}

TEST(BudgetCertificate, AgreesWithUnseededSearchOnLargerDraws) {
  // Beyond brute force: 6-12 tasks on 3-5 nodes each, charges pinned as
  // above, with an unseeded branch-and-bound as the oracle. The certified
  // greedy matches it, and no allocation one node off the greedy is
  // accepted unless it is as good.
  const double gap_tol = minlp::BnbOptions{}.gap_tol;
  for (int instance = 0; instance < 6; ++instance) {
    Rng rng(static_cast<std::uint64_t>(instance) * 4099 + 17);
    const int count = static_cast<int>(rng.uniform_int(6, 12));
    const long long budget = count * rng.uniform_int(3, 5);
    auto tasks = random_tasks(rng, budget, count);
    pin_charges(rng, tasks, budget, instance % 3);
    SCOPED_TRACE("instance " + std::to_string(instance) + ": " +
                 std::to_string(count) + " tasks on " +
                 std::to_string(budget) + " nodes");
    for (Objective obj : {Objective::MinMax, Objective::MinSum}) {
      SCOPED_TRACE(to_string(obj));
      const auto greedy = nodes_of(solve_budget(tasks, budget, obj));
      EXPECT_TRUE(certify_budget(tasks, budget, obj, greedy, gap_tol));
      const auto bnb = minlp::solve(build_budget_minlp(tasks, budget, obj));
      ASSERT_EQ(bnb.status, minlp::BnbStatus::Optimal);
      const double want = evaluate_objective(tasks, greedy, obj);
      const double optimum =
          allocation_from_minlp(tasks, bnb.x, obj).predicted_total;
      EXPECT_NEAR(optimum, want, 1e-9 * (1.0 + want));
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (greedy[i] <= floor_of(tasks[i])) continue;
        for (std::size_t j = 0; j <= tasks.size(); ++j) {
          auto nodes = greedy;
          --nodes[i];
          if (j < tasks.size()) {  // j == size: the node is removed
            if (j == i || nodes[j] >= tasks[j].max_nodes) continue;
            ++nodes[j];
          }
          if (certify_budget(tasks, budget, obj, nodes, gap_tol)) {
            EXPECT_LE(evaluate_objective(tasks, nodes, obj), optimum + gap_tol);
          }
        }
      }
    }
  }
}

TEST(BudgetCertificate, ProvesSaturatedGreedyWithBudgetLeft) {
  // The serial task's time is its floor at any node count, so the greedy
  // stops with most of the budget unspent; the certificate proves it by
  // that task alone.
  const std::vector<BudgetTask> tasks{task("serial", 0.0, 50.0, 1000),
                                      task("scalable", 100.0, 0.0, 1000)};
  const auto greedy = nodes_of(solve_min_max(tasks, 1000));
  ASSERT_LT(greedy[0] + greedy[1], 1000);
  EXPECT_TRUE(certify_budget(tasks, 1000, Objective::MinMax, greedy, 1e-9));
}

TEST(BudgetCertificate, RefusesWhatItCannotProve) {
  const double gap_tol = minlp::BnbOptions{}.gap_tol;
  const std::vector<BudgetTask> tasks{task("a", 300, 1, 16),
                                      task("b", 100, 2, 16)};
  const auto greedy = nodes_of(solve_min_max(tasks, 16));
  ASSERT_TRUE(certify_budget(tasks, 16, Objective::MinMax, greedy, gap_tol));

  // A non-convex model (b > 0, c < 1), even at its own greedy.
  std::vector<BudgetTask> concave = tasks;
  concave[1].model = perf::Model{100, 2.0, 0.5, 2};
  EXPECT_FALSE(certify_budget(concave, 16, Objective::MinMax,
                              nodes_of(solve_min_max(concave, 16)), gap_tol));
  // max-min has no certificate.
  EXPECT_FALSE(certify_budget(tasks, 16, Objective::MaxMin,
                              nodes_of(solve_max_min(tasks, 16)), gap_tol));
  // Over the budget: the greedy of 16 against 15 nodes.
  EXPECT_FALSE(certify_budget(tasks, 15, Objective::MinMax, greedy, gap_tol));
  // Outside the boxes: past max_nodes, and below a memory floor.
  std::vector<BudgetTask> capped = tasks;
  capped[0].max_nodes = greedy[0] - 1;
  EXPECT_FALSE(certify_budget(capped, 16, Objective::MinMax, greedy, gap_tol));
  std::vector<BudgetTask> floored = tasks;
  floored[1].model.pin_memory(2.0 * static_cast<double>(greedy[1] + 1), 2.0,
                              0.0);
  EXPECT_FALSE(certify_budget(floored, 16, Objective::MinMax, greedy, gap_tol));
  // A min-sum allocation with a task past its argmin (T_r = 4/n + n is
  // least at 2): no task gains from one more node, but handing one back
  // would.
  const std::vector<BudgetTask> rising{
      BudgetTask{"r", perf::Model{4, 1.0, 1.0, 0}, 1, 8}, task("s", 1, 0, 1)};
  const std::vector<long long> past{4, 1};
  EXPECT_FALSE(certify_budget(rising, 5, Objective::MinSum, past, gap_tol));
  EXPECT_TRUE(certify_budget(rising, 5, Objective::MinSum,
                             nodes_of(solve_min_sum(rising, 5)), gap_tol));
}

TEST(BudgetBnbParity, GreedySeededSearchIsThreadIndependent) {
  // No substrate run reaches the greedy-seeded budget B&B any more (only
  // the service's solve-kind requests do), so it is checked here: on
  // FMO/FMM/AMReX-shaped instances (8-20 tasks with comm slopes and memory
  // rows) its answer and every work counter are bit-identical at 1 and 4
  // solver threads.
  constexpr int kCounts[] = {8, 12, 16, 20};
  for (int i = 0; i < 4; ++i) {
    Rng rng(static_cast<std::uint64_t>(i) * 3301 + 5);
    const int count = kCounts[i];
    const long long budget = count * rng.uniform_int(3, 5);
    auto tasks = random_tasks(rng, budget, count);
    for (std::size_t f = 0; f < tasks.size(); ++f) {
      if (f % 2 == 1)
        tasks[f].model.pin_comm(rng.uniform(0.01, 0.5), 1.0 / 0.425);
      if (f % 3 == 2)
        tasks[f].model.pin_memory(
            rng.uniform(1.0, 2.0 * static_cast<double>(budget / count)), 2.0,
            1.5);
    }
    SCOPED_TRACE(std::to_string(count) + " tasks on " +
                 std::to_string(budget) + " nodes");
    for (Objective obj : {Objective::MinMax, Objective::MinSum}) {
      if (obj == Objective::MinSum && count > 12) continue;  // see BudgetVsBnb
      SCOPED_TRACE(to_string(obj));
      const auto model = build_budget_minlp(tasks, budget, obj);
      minlp::BnbResult serial;
      for (std::size_t threads : {1u, 4u}) {
        minlp::BnbOptions options;
        options.solver_threads = threads;
        seed_bnb_options(options, tasks, budget, obj, {});
        const auto r = minlp::solve(model, options);
        ASSERT_EQ(r.status, minlp::BnbStatus::Optimal);
        if (threads == 1) {
          EXPECT_GT(r.nodes, 0u);
          serial = r;
          continue;
        }
        EXPECT_EQ(r.x, serial.x);
        EXPECT_EQ(r.objective, serial.objective);
        EXPECT_EQ(r.nodes, serial.nodes);
        EXPECT_EQ(r.cuts, serial.cuts);
        EXPECT_EQ(r.waves, serial.waves);
        EXPECT_EQ(r.lp_solves, serial.lp_solves);
        EXPECT_EQ(r.lp_pivots, serial.lp_pivots);
        EXPECT_EQ(r.warm_solves, serial.warm_solves);
        EXPECT_EQ(r.lp_stats.refactorizations,
                  serial.lp_stats.refactorizations);
      }
    }
  }
}

TEST(BudgetSolverPaths, CertifiesTheGreedyOrReturnsItAsExact) {
  const std::vector<BudgetTask> tasks{task("a", 300, 1, 16),
                                      task("b", 100, 2, 16)};
  const auto greedy = nodes_of(solve_min_max(tasks, 16));
  const BudgetSolver solver(Objective::MinMax, 1e-9, 2.0, 0.5);

  // The certificate proves the greedy and says so; two waves of the
  // slowest task plus sync.
  const auto proved = solver.solve(tasks, 16);
  EXPECT_TRUE(proved.solver.certified);
  EXPECT_EQ(proved.solver.status, "optimal");
  EXPECT_EQ(proved.solver.nodes, 0u);
  EXPECT_EQ(nodes_of(proved.allocation), greedy);
  EXPECT_DOUBLE_EQ(proved.predicted_total,
                   2.0 * (proved.allocation.predicted_total + 0.5));

  // On a model the certificate refuses (b > 0, c < 1) the greedy comes
  // back as the exact greedy.
  std::vector<BudgetTask> concave = tasks;
  concave[1].model = perf::Model{100, 2.0, 0.5, 2};
  const auto refused = solver.solve(concave, 16);
  EXPECT_FALSE(refused.solver.certified);
  EXPECT_EQ(refused.solver.status, "min-max exact greedy");
  EXPECT_EQ(nodes_of(refused.allocation),
            nodes_of(solve_min_max(concave, 16)));

  // A re-solve predicts one epoch (objective + sync) for the proposal and
  // for the installed allocation.
  const Allocation installed = solve_min_max(tasks, 12);
  const auto re = solver.resolve(tasks, 16, installed);
  EXPECT_TRUE(re.solution.solver.certified);
  EXPECT_EQ(nodes_of(re.solution.allocation), greedy);
  EXPECT_DOUBLE_EQ(re.solution.predicted_total,
                   proved.allocation.predicted_total + 0.5);
  EXPECT_DOUBLE_EQ(re.incumbent_predicted, installed.predicted_total + 0.5);
  EXPECT_EQ(solver.resolve(concave, 16, installed).solution.solver.status,
            "min-max exact greedy (warm)");

  // Max-min has no certificate: its Solve is the exact greedy.
  const BudgetSolver max_min(Objective::MaxMin, 1e-9, 1.0, 0.0);
  const std::vector<BudgetTask> even{task("a", 10, 0, 8), task("b", 10, 0, 8)};
  const auto spread = max_min.solve(even, 8);
  EXPECT_FALSE(spread.solver.certified);
  EXPECT_EQ(spread.solver.status, "max-min exact greedy");
  EXPECT_EQ(nodes_of(spread.allocation), nodes_of(solve_max_min(even, 8)));
}

TEST(BudgetMinlp, RejectsMaxMin) {
  const std::vector<BudgetTask> tasks{task("a", 10, 0, 8), task("b", 10, 0, 8)};
  EXPECT_THROW(build_budget_minlp(tasks, 8, Objective::MaxMin),
               ContractViolation);
}

}  // namespace
}  // namespace hslb

// Budgeted node-allocation solvers for "a few large tasks of diverse size"
// — the FMO form of HSLB (title paper): choose integer n_f for each task f
//
//     objective( T_1(n_1), ..., T_F(n_F) )   s.t.  sum_f n_f <= N,
//     min_nodes_f <= n_f <= max_nodes_f
//
// with T_f the fitted performance models. This is the "single constraint
// resource-constrained MINLP with non-increasing objectives" the paper
// cites from Ibaraki & Katoh [11] as solvable in polynomial time:
//
//  * min-max  — exact greedy (provably optimal for non-increasing T_f:
//               repeatedly feed the currently slowest task),
//  * min-sum  — exact marginal-gain greedy (optimal for convex T_f),
//  * max-min  — pairwise-exchange local search (the objective is not
//               convexifiable with our cut machinery; §III-D only uses it
//               as an ablation baseline).
//
// build_budget_minlp() expresses the same problem as a general MINLP so the
// branch-and-bound path can cross-check the specialized solvers
// (bench/fmo_solver_crosscheck and the property tests do exactly that).
//
// BudgetSolver is the Solve step built on top: greedy or branch-and-bound,
// warm-seeded from what an earlier search learned (SolveSeed).
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hslb/allocation.hpp"
#include "hslb/objective.hpp"
#include "hslb/pipeline.hpp"
#include "minlp/bnb.hpp"
#include "minlp/model.hpp"
#include "perf/terms.hpp"

namespace hslb {

struct BudgetTask {
  std::string name;
  /// The task's cost model: any sum of registered terms (perf/terms.hpp).
  /// Implicitly constructible from the classic perf::Model, in which case
  /// every solver below behaves bit-identically to the power-law-only
  /// implementation. Knapsack terms (memory) raise the effective node
  /// floor; affine terms (communication) enter the MINLP as exact linear
  /// rows rather than outer-approximated nonlinear constraints.
  perf::CostModel model;
  long long min_nodes = 1;
  long long max_nodes = 0;  ///< inclusive upper bound (e.g. total nodes)
};

/// Exact min-max allocation (greedy; optimal for models non-increasing on
/// the allocated range — allocations are capped at each model's argmin so
/// this always holds). Requires sum of min_nodes <= budget.
Allocation solve_min_max(std::span<const BudgetTask> tasks, long long budget);

/// Exact min-sum allocation (marginal-gain greedy; optimal for convex
/// models). Requires sum of min_nodes <= budget.
Allocation solve_min_sum(std::span<const BudgetTask> tasks, long long budget);

/// Max-min allocation by pairwise-exchange local search from the min-max
/// solution. Heuristic (documented ablation baseline). Unlike the other
/// objectives this one spends the *entire* budget: with a "<=" budget
/// max-min degenerates (fewer nodes always raise every time), so the
/// meaningful reading — and the one §III-D compares against — equalizes
/// component times over all N nodes.
Allocation solve_max_min(std::span<const BudgetTask> tasks, long long budget);

/// Dispatch on objective.
Allocation solve_budget(std::span<const BudgetTask> tasks, long long budget,
                        Objective objective);

/// The same problem as a convex MINLP (min-max or min-sum only):
/// variables are laid out as n_f = f (task order), then the epigraph
/// variable(s). Used for branch-and-bound cross-checks.
minlp::Model build_budget_minlp(std::span<const BudgetTask> tasks,
                                long long budget, Objective objective);

/// Converts a MINLP solution vector of build_budget_minlp back into an
/// Allocation (reads the first tasks.size() variables).
Allocation allocation_from_minlp(std::span<const BudgetTask> tasks,
                                 std::span<const double> x,
                                 Objective objective);

/// Lifts per-task node counts into a full solution vector for the MINLP
/// build_budget_minlp builds over the SAME task list: the node counts
/// verbatim, with epigraph and split variables re-evaluated against the
/// current models. Used to seed a warm re-solve (BnbOptions::seed_incumbent
/// / seed_points) from a previous allocation — the point is feasible
/// whenever the node counts respect the new bounds and budget, and the B&B
/// re-checks that before accepting it.
std::vector<double> minlp_warm_start(std::span<const BudgetTask> tasks,
                                     std::span<const long long> nodes,
                                     Objective objective);

/// Objective value of an allocation under the given criterion.
double evaluate_objective(std::span<const BudgetTask> tasks,
                          std::span<const long long> nodes,
                          Objective objective);

/// What one MINLP solve learned, for seeding a later solve of a related
/// instance: the next closed-loop re-solve of the same run, or — through
/// the allocation service — another pipeline's Solve step. Seeding never
/// changes the optimum (an infeasible incumbent is rejected by the B&B
/// audit, stale cuts by the parameter check); it only prunes the tree.
struct SolveSeed {
  /// One node count per task in task order (empty = no incumbent seed).
  std::vector<long long> nodes_by_task;
  /// The MINLP optimum, re-linearized against the new model (valid by
  /// convexity even when the models moved).
  std::vector<double> x;
  /// The cut pool, reused verbatim only when `fit_params` equals the new
  /// instance's flatten_params — the validity condition for OA cuts.
  std::vector<minlp::Cut> cuts;
  std::vector<double> fit_params;
};

/// Every item's cost-model parameters, concatenated in order (`cost_of`
/// maps an item to its perf::CostModel). Equal vectors mean the MINLP's
/// nonlinear constraints are unchanged.
template <typename Items, typename CostOf>
std::vector<double> flatten_params(const Items& items, CostOf cost_of) {
  std::vector<double> out;
  for (const auto& item : items) {
    const perf::CostModel& model = cost_of(item);
    for (std::size_t i = 0; i < model.num_terms(); ++i) {
      const auto p = model.params(i);
      out.insert(out.end(), p.begin(), p.end());
    }
  }
  return out;
}

/// Seeds `bnb` for the build_budget_minlp model of `tasks`: the seed's node
/// counts, clamped into the tasks' boxes, become the candidate incumbent
/// and a linearization point; its optimum a second linearization point;
/// its cuts carry over only when `fit_params` equals the seed's.
void seed_bnb_options(minlp::BnbOptions& bnb,
                      std::span<const BudgetTask> tasks, Objective objective,
                      const SolveSeed& seed,
                      const std::vector<double>& fit_params);

/// The Solve step of substrates whose tasks run as barrier-closed waves
/// (the FMO SCC loop, hslb::WaveApplication): the exact greedy, or
/// branch-and-bound warm-seeded from a SolveSeed. It keeps what its last
/// search learned, so a closed-loop re-solve starts warm.
class BudgetSolver {
 public:
  using Fits = std::vector<std::pair<std::string, perf::FitResult>>;

  /// `minlp` selects branch-and-bound (with `bnb`) over the greedy. A run
  /// is predicted as `waves` waves, each its slowest task plus `sync`.
  BudgetSolver(Objective objective, bool minlp, minlp::BnbOptions bnb,
               double waves, double sync);

  /// Solves `tasks` (fitted as `fits`) within `budget`: allocation, solver
  /// stats, waves x (slowest + sync) prediction, and term-wise predicted
  /// task-seconds. `seed` warms the branch-and-bound.
  SolveOutcome solve(std::span<const BudgetTask> tasks, long long budget,
                     const Fits& fits, const SolveSeed& seed = {});

  /// Closed-loop warm re-solve: seeded with the incumbent's node counts and
  /// the last search's optimum, pool and parameters. Predictions are per
  /// epoch (objective + sync), for the proposal and for the incumbent.
  ResolveOutcome resolve(std::span<const BudgetTask> tasks, long long budget,
                         const Fits& fits, const Allocation& incumbent);

  /// What the last branch-and-bound search learned (no node counts).
  const SolveSeed& learned() const { return learned_; }
  /// True when the last search started from its seed incumbent.
  bool seed_accepted() const { return seed_accepted_; }

 private:
  SolveOutcome search(std::span<const BudgetTask> tasks, long long budget,
                      const Fits& fits, const SolveSeed& seed);

  Objective objective_;
  bool minlp_;
  minlp::BnbOptions bnb_;
  double waves_;
  double sync_;
  SolveSeed learned_;
  bool seed_accepted_ = false;
};

}  // namespace hslb

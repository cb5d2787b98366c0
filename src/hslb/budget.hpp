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
// certify_budget() proves an allocation optimal without search when every
// T_f is convex, in O(F log N) model evaluations and no LP:
//
//  * min-max — with T* the allocation's makespan, any allocation beating
//    T* - gap_tol needs every task below that time. On [min, argmin] a
//    convex T_f is non-increasing, so a bisection finds the least such n_f;
//    when some task has none, or these n_f sum past the budget, nothing
//    beats T* by more than gap_tol;
//  * min-sum — the first differences D_f(n) = T_f(n) - T_f(n+1) are
//    non-increasing. With eps = gap_tol / N, either no task gains more than
//    eps from one more node, or the budget is spent and no such gain
//    exceeds the least loss of giving one back plus eps; in both cases
//    every loss is >= 0. Another allocation makes U <= N up-moves against
//    at least as many down-moves when the budget is spent, so it gains at
//    most U * eps <= gap_tol.
//
// build_budget_minlp() expresses the same problem as a general MINLP for
// branch-and-bound, which starts from the greedy and proves it
// (seed_bnb_options): the allocation service's solve-kind requests take
// that path, and an unseeded search cross-checks the specialized solvers
// (bench/fmo_solver_crosscheck and the property tests do exactly that).
//
// BudgetSolver is the Solve step built on top: the greedy, proved by the
// certificate whenever it can be. It runs no tree.
#pragma once

#include <span>
#include <string>
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
  /// The task's cost model (perf/terms.hpp): the fitted power law plus any
  /// pinned machine charges. Implicitly constructible from perf::Model, in
  /// which case every solver below sees the power law alone. The memory
  /// knapsack row raises the effective node floor; the comm charge enters
  /// the MINLP as an exact linear row rather than outer-approximated
  /// nonlinear constraints.
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
/// variable(s). Solved by the branch-and-bound Solve path and its
/// cross-checks.
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
/// current models. seed_bnb_options lifts the greedy's allocation into
/// BnbOptions::seed_incumbent this way (the B&B re-checks its feasibility
/// before accepting it), and a previous allocation into a seed_points
/// entry.
std::vector<double> minlp_warm_start(std::span<const BudgetTask> tasks,
                                     std::span<const long long> nodes,
                                     Objective objective);

/// True only when `nodes` — inside its boxes (the effective floor to
/// max_nodes) and within `budget` — provably has no feasible allocation
/// better by more than `gap_tol` (see the file comment). Refuses max-min,
/// any model that is not is_convex(), and any allocation outside its boxes
/// or over the budget; a refusal proves nothing either way.
bool certify_budget(std::span<const BudgetTask> tasks, long long budget,
                    Objective objective, std::span<const long long> nodes,
                    double gap_tol);

/// Objective value of an allocation under the given criterion.
double evaluate_objective(std::span<const BudgetTask> tasks,
                          std::span<const long long> nodes,
                          Objective objective);

/// What one MINLP solve learned, for seeding a later solve of a related
/// instance through the allocation service. The incumbent always comes
/// from the exact greedy (seed_bnb_options), so a seed only adds
/// linearization points and cuts: it never changes the optimum (stale cuts
/// are dropped by the model check), it only prunes the tree. An empty seed
/// is a cold solve.
struct SolveSeed {
  /// One node count per task in task order (empty = none), re-linearized
  /// against the new model after clamping into the tasks' boxes.
  std::vector<long long> nodes_by_task;
  /// The MINLP optimum, re-linearized against the new model (valid by
  /// convexity even when the models moved).
  std::vector<double> x;
  /// The cut pool, reused verbatim only when `models` equals the new
  /// instance's task models in task order, every pinned charge included:
  /// the validity condition for OA cuts and their variable layout.
  std::vector<minlp::Cut> cuts;
  std::vector<perf::CostModel> models;
};

/// The tasks' cost models in task order (SolveSeed::models).
std::vector<perf::CostModel> task_models(std::span<const BudgetTask> tasks);

/// Seeds `bnb` for the build_budget_minlp model of `tasks` within `budget`.
/// The exact greedy (solve_budget, lifted by minlp_warm_start) becomes the
/// incumbent and the first linearization point, so the search only has to
/// prove it optimal; dives are switched off, since a primal heuristic
/// cannot improve an optimal incumbent. The seed's node counts, clamped
/// into the tasks' boxes, and its optimum become further linearization
/// points; its cuts carry over only when the seed's models equal the
/// tasks'. Returns true when the seed added a point or its cuts: the search
/// is warm, seeded from a donor.
bool seed_bnb_options(minlp::BnbOptions& bnb,
                      std::span<const BudgetTask> tasks, long long budget,
                      Objective objective, const SolveSeed& seed);

/// The Solve step of substrates whose tasks run as barrier-closed waves
/// (the FMO SCC loop, hslb::WaveApplication): the exact greedy, proved
/// with certify_budget and reported as certified. The greedy is exact for
/// the convex models the Fit produces (Ibaraki & Katoh), so a refusal, and
/// every max-min Solve, returns it as the exact greedy.
class BudgetSolver {
 public:
  /// Certifies at `gap_tol`. A run is predicted as `waves` waves, each its
  /// slowest task plus `sync`.
  BudgetSolver(Objective objective, double gap_tol, double waves,
               double sync);

  /// Solves `tasks` within `budget`: allocation, solver stats, waves x
  /// (slowest + sync) prediction, and term-wise predicted task-seconds.
  SolveOutcome solve(std::span<const BudgetTask> tasks,
                     long long budget) const;

  /// Closed-loop re-solve. Predictions are per epoch (objective + sync),
  /// for the proposal and for the installed allocation `incumbent`.
  ResolveOutcome resolve(std::span<const BudgetTask> tasks, long long budget,
                         const Allocation& incumbent) const;

 private:
  SolveOutcome search(std::span<const BudgetTask> tasks, long long budget,
                      bool resolve) const;

  Objective objective_;
  double gap_tol_;
  double waves_;
  double sync_;
};

}  // namespace hslb

// LP/NLP-based branch-and-bound for convex MINLPs (Quesada-Grossmann),
// following the algorithm description in §III-E of the paper:
//
//  * an initial MILP relaxation is built from linearizations at the solution
//    of the continuous NLP relaxation;
//  * the tree search solves LP relaxations; fractional solutions are
//    branched on; integral solutions that violate a nonlinear constraint
//    get fresh outer-approximation cuts and the node is re-solved;
//  * integral solutions feasible for all nonlinear constraints become
//    incumbents;
//  * special-ordered sets are branched on as sets (the paper reports this is
//    ~two orders of magnitude faster than branching the member binaries
//    individually; bench/minlp_sos reproduces that ablation).
//
// Because the HSLB performance functions are convex (a, b, d >= 0, c >= 1),
// the method terminates with a *proven global* optimum, the property the
// paper highlights as the key feature of the branch-and-bound approach.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "minlp/kelley.hpp"
#include "minlp/model.hpp"

namespace hslb::minlp {

enum class BnbStatus {
  Optimal,        ///< tree exhausted, incumbent is the global optimum
  Infeasible,     ///< tree exhausted without any feasible point
  NodeLimit,      ///< stopped early; incumbent (if any) has `gap` slack
  TimeLimit,
};

std::string to_string(BnbStatus s);

/// How the fractional integer variable to branch on is chosen.
enum class BranchRule {
  MostFractional,  ///< value farthest from an integer (simple, default)
  PseudoCost,      ///< history-weighted degradation estimates
};

struct BnbOptions {
  double int_tol = 1e-6;        ///< integrality tolerance
  double feas_tol = 1e-7;       ///< nonlinear feasibility tolerance (relative)
  double gap_tol = 1e-9;        ///< absolute incumbent-vs-bound pruning slack
  std::size_t max_nodes = 200000;
  double time_limit_seconds = 300.0;
  bool use_sos_branching = true;  ///< false: branch member binaries directly
  BranchRule branch_rule = BranchRule::MostFractional;
  std::size_t max_passes_per_node = 50;  ///< QG cut-and-resolve passes
  KelleyOptions kelley;         ///< used for root & fixed-integer NLP solves
  /// Threads for node LP re-solves (1 = serial, 0 = hardware concurrency).
  /// The search — incumbent, bound, branching sequence, node count — is
  /// bit-identical for every value: nodes are expanded in synchronized
  /// best-bound waves whose composition depends only on `wave_size`, and
  /// wave outcomes are merged in deterministic wave order.
  std::size_t solver_threads = 1;
  /// Nodes per synchronized wave. Part of the search definition (NOT a
  /// tuning knob tied to the thread count): changing it changes which nodes
  /// are expanded, independently of solver_threads.
  std::size_t wave_size = 16;
  /// Warm-start node LPs from the parent basis (dual-simplex repair).
  /// Results are identical either way; disable only for benchmarking.
  bool warm_start = true;
  /// Run the LP diving primal heuristic at fractional nodes whose bound
  /// still undercuts the incumbent (finds incumbents early on wide integer
  /// boxes where LP vertices are rarely integral).
  bool heuristic_dives = true;
  /// Run the LP presolve (lp::Presolve) on cold solves: the root relaxation
  /// and every node LP whose warm start is rejected. Warm re-solves bypass
  /// it — their cost is a handful of dual pivots already.
  bool presolve = true;
  /// Consecutive slack observations before an OA cut is retired from node
  /// LPs (0 keeps every cut forever). Retired cuts stay in the pool and
  /// reactivate on violation, so bounds are never weakened silently.
  std::size_t cut_age_limit = 12;

  // -- Cross-solve warm seeding (closed-loop re-solves) ---------------------
  // A rebalance controller re-solves a model that differs from the previous
  // solve only in bounds, a budget row, or slightly-refitted nonlinear
  // constraints. Seeding the new search with what the previous one learned
  // prunes most of the tree up front.

  /// Candidate incumbent checked against the *new* model before the root
  /// solve (sized num_vars; empty = none). An infeasible seed is silently
  /// rejected — seeding can never produce a wrong answer, only pruning.
  std::vector<double> seed_incumbent;

  /// Cuts from a previous solve's pool, inserted before the root solve.
  /// Only valid when the nonlinear constraints are UNCHANGED (bounds and
  /// linear rows may differ — OA cuts do not depend on them); the caller
  /// guarantees this.
  std::vector<Cut> seed_cuts;

  /// Points to re-linearize at: one fresh OA cut per nonlinear constraint
  /// per point, generated against the new model — valid by convexity even
  /// when the constraints were refitted since the cuts' source solve.
  std::vector<std::vector<double>> seed_points;
};

struct BnbResult {
  BnbStatus status = BnbStatus::Infeasible;
  double objective = 0.0;       ///< incumbent objective (valid if has_solution)
  std::vector<double> x;        ///< incumbent point
  bool has_solution = false;
  double best_bound = 0.0;      ///< proven lower bound on the optimum
  double gap = 0.0;             ///< objective - best_bound (0 when Optimal)
  double rel_gap = 0.0;         ///< gap / max(1, |objective|) (0 when Optimal)
  // Statistics.
  std::size_t nodes = 0;
  std::size_t lp_solves = 0;
  std::size_t nlp_solves = 0;
  std::size_t cuts = 0;
  double seconds = 0.0;
  std::size_t lp_pivots = 0;       ///< simplex pivots over every LP solve
  std::size_t tree_lp_pivots = 0;  ///< pivots excluding the root relaxation
  std::size_t warm_solves = 0;     ///< LP solves that reused a prior basis
  std::size_t waves = 0;           ///< synchronized node waves executed
  /// Sparsity and presolve counters summed over every LP solve of the
  /// search (root relaxation, node re-solves, dives).
  lp::SolveStats lp_stats;
  // Domain propagation and cut lifecycle counters.
  std::size_t bounds_tightened = 0;  ///< propagation bound improvements
  std::size_t nodes_propagated_infeasible = 0;  ///< pruned before any LP
  std::size_t cuts_retired = 0;      ///< pool cuts aged out of node LPs
  std::size_t cuts_reactivated = 0;  ///< retired cuts pulled back on violation
  /// The final cut pool, exported for seeding a later warm re-solve
  /// (BnbOptions::seed_cuts) when the nonlinear constraints are unchanged.
  std::vector<Cut> pool_cuts;
};

/// Propagates the node's bound overrides through the model's linear rows
/// (activity-based implied bounds, rounded on integer variables) and SOS1
/// sets (a forced-nonzero member fixes its siblings to zero). Tightens
/// `bounds` in place; `tightened`, when non-null, accumulates the number of
/// improvements. Returns false when some domain empties — the node is
/// infeasible without a single LP solve.
bool propagate_bounds(const Model& model, BoundOverrides& bounds,
                      double int_tol, std::size_t max_passes = 4,
                      std::size_t* tightened = nullptr);

/// Solves a convex MINLP to global optimality. Every variable must have
/// finite bounds (the HSLB model builders guarantee this; violations throw).
BnbResult solve(const Model& model, const BnbOptions& options = {});

}  // namespace hslb::minlp

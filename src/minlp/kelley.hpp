// Kelley cutting-plane solver for the *continuous* convex relaxation of a
// MINLP (integrality dropped, SOS1 dropped).
//
// Iterates: solve the LP made of the linear constraints plus all OA cuts;
// if some nonlinear constraint is violated at the LP optimum, linearize it
// there and repeat. For convex constraints over a bounded box this
// converges to the NLP optimum — it fills the role filterSQP plays under
// MINOTAUR for this problem class (every NLP we solve is convex).
#pragma once

#include <optional>
#include <vector>

#include "lp/simplex.hpp"
#include "minlp/cuts.hpp"
#include "minlp/model.hpp"

namespace hslb::minlp {

struct KelleyOptions {
  double feas_tol = 1e-7;       ///< max allowed nonlinear violation (relative)
  std::size_t max_rounds = 200; ///< LP solves before giving up
  lp::Options lp;               ///< inner simplex options
};

struct KelleyResult {
  enum class Status { Optimal, Infeasible, RoundLimit } status;
  double objective = 0.0;
  std::vector<double> x;
  std::size_t lp_solves = 0;
  std::size_t cuts_added = 0;
  std::size_t lp_pivots = 0;  ///< simplex pivots summed over all rounds
  lp::SolveStats lp_stats;    ///< sparsity counters summed over all rounds
  /// Final LP basis (rows = model linear rows, then the pool cuts present
  /// when the last round solved). Reusable as a warm start for any later
  /// relaxation whose rows extend that prefix.
  lp::Basis basis;
};

/// Per-variable bound overrides used by branch-and-bound nodes; an entry of
/// std::nullopt keeps the model bound.
struct BoundOverrides {
  std::vector<std::optional<double>> lower, upper;

  explicit BoundOverrides(std::size_t n) : lower(n), upper(n) {}
  double lb(const Model& m, std::size_t v) const {
    return lower[v] ? *lower[v] : m.lower(v);
  }
  double ub(const Model& m, std::size_t v) const {
    return upper[v] ? *upper[v] : m.upper(v);
  }
};

/// Builds the LP relaxation (linear rows + the ledger's cut layout) with
/// the given bound overrides. Shared by Kelley and branch-and-bound.
lp::Model build_lp_relaxation(const Model& model, const CutLedger& ledger,
                              const BoundOverrides& bounds);

/// Builds the LP relaxation over the pool's *active* cuts (ascending id).
lp::Model build_lp_relaxation(const Model& model, const CutPool& pool,
                              const BoundOverrides& bounds);

/// Solves the continuous relaxation against a node ledger; cuts gained
/// along the way land in the ledger (appended or reactivated), never in
/// the shared pool — the caller merges them in deterministic order. Every
/// round's LP runs on the caller's `engine`.
KelleyResult solve_relaxation(const Model& model, CutLedger& ledger,
                              const BoundOverrides& bounds,
                              const KelleyOptions& options,
                              lp::Solver& engine);

/// Solves the continuous relaxation; new cuts are appended to `pool` (they
/// are globally valid and reused by the caller's tree search) and retired
/// pool cuts found violated are reactivated. The LPs run on `engine` when
/// given, else on a temporary one.
KelleyResult solve_relaxation(const Model& model, CutPool& pool,
                              const BoundOverrides& bounds,
                              const KelleyOptions& options = {},
                              lp::Solver* engine = nullptr);

/// Convenience overload with no overrides.
KelleyResult solve_relaxation(const Model& model, CutPool& pool,
                              const KelleyOptions& options = {});

}  // namespace hslb::minlp

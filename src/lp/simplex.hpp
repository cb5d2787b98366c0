// Bounded-variable simplex solver with warm starts.
//
// Cold solves run the classic two-phase primal method (per-row artificial
// variables; range rows as bounded slacks; nonbasic variables at a bound or
// at zero when free). Warm solves skip Phase I entirely: the caller passes
// the basis of a previously solved, structurally compatible model (same
// columns, a row prefix of the new model — branch-and-bound children differ
// from their parent only by tightened bounds and appended cut rows), a dual
// simplex phase repairs the handful of primal infeasibilities the changes
// introduced, and a primal cleanup phase certifies optimality.
//
// The basis inverse is maintained by Forrest-Tomlin updates of the sparse
// Markowitz LU factors (linalg::UpdatableLU): each pivot replaces one
// column of U in place, so FTRAN/BTRAN keep solving against a compact
// factorization instead of a growing product-form eta file. Refactorization
// is adaptive — triggered by update-fill growth or a numerically unstable
// update, with the interval as a backstop cap. Answers are checked from the
// model alone by lp::certify (lp/certify.hpp). Entering variables are
// chosen by candidate-list partial pricing under a Devex reference
// framework instead of a full Dantzig sweep (cf. DESIGN.md). An lp::Solver
// keeps all of this storage across solves, so a branch-and-bound worker
// re-solving node LPs of tens of rows allocates little beyond each
// returned Solution.
//
// Plays the role CLP plays under MINOTAUR in the paper (§III-E).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace hslb::lp {

enum class Status {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
};

/// Human-readable status label.
std::string to_string(Status s);

/// Basis membership of one variable (structural column or row slack).
enum class BasisStatus : std::uint8_t { Basic, AtLower, AtUpper, Free };

/// Snapshot of an optimal basis, reusable as a warm start for a model with
/// the same columns and whose rows extend this model's rows (appended rows
/// start with their slack basic). Row-bound and column-bound changes are
/// repaired by the dual simplex.
struct Basis {
  std::vector<BasisStatus> cols;  ///< one entry per structural column
  std::vector<BasisStatus> rows;  ///< one entry per row (its slack)

  bool empty() const { return cols.empty() && rows.empty(); }
};

struct Options {
  double feasibility_tol = 1e-8;    ///< row/column feasibility tolerance
  double optimality_tol = 1e-9;     ///< reduced-cost tolerance
  std::size_t max_iterations = 50000;
  /// Switch from Dantzig pricing to Bland's rule after this many
  /// consecutive degenerate pivots (anti-cycling).
  std::size_t bland_threshold = 200;
  /// Upper cap on basis updates between refactorizations. The fill and
  /// drift triggers usually refactorize earlier; this is the
  /// numerical-safety backstop.
  std::size_t refactor_interval = 64;
  /// Forrest-Tomlin fill trigger: refactorize when the updated factors grow
  /// beyond this multiple of the fresh-factorization fill. Must be >= 1.
  double refactor_fill_ratio = 2.0;
  /// Optional warm-start basis (not owned; must outlive the solve call).
  /// Ignored — falling back to a cold solve — when structurally
  /// incompatible or numerically singular.
  const Basis* warm_start = nullptr;
  /// Run the LP presolve (lp/presolve.hpp) before a *cold* solve and map
  /// the answer back through postsolve. Warm starts bypass it: the caller's
  /// basis is in the original space and the dual repair is already cheap.
  /// Off by default at this layer; the MINLP solver turns it on for its
  /// root and cold re-solves (minlp::BnbOptions::presolve).
  bool presolve = false;
};

/// Nonzero / pivot-fill accounting for one solve. The kernel counters
/// compare the work the FTRAN/BTRAN passes actually perform (updated LU
/// nonzeros touched per triangular solve) against what dense kernels would
/// spend on the same sequence of solves (m^2 per triangular solve pair plus
/// m per basis update folded in). Their ratio is the "flops per pivot"
/// reduction: the bases of the OA master LPs stay hypersparse, so the LU
/// solve work collapses.
struct SolveStats {
  std::size_t pivots = 0;            ///< basis changes recorded (primal + dual)
  std::size_t kernel_flops = 0;       ///< FTRAN/BTRAN work actually done
  std::size_t kernel_dense_flops = 0; ///< dense-kernel work for same solves
  std::size_t refactorizations = 0;  ///< basis factorizations performed
  std::size_t basis_nnz = 0;         ///< nonzeros of the last factored basis
  std::size_t lu_fill = 0;           ///< nonzeros of its L+U factors
  // Forrest-Tomlin accounting.
  std::size_t ft_updates = 0;        ///< successful FT column replacements
  std::size_t ft_fill_nnz = 0;       ///< factor nonzeros the updates appended
  // Why each refactorization beyond the initial factor fired.
  std::size_t refactor_interval_hits = 0;  ///< update-count backstop reached
  std::size_t refactor_fill_hits = 0;      ///< fill-ratio trigger
  std::size_t refactor_drift_hits = 0;     ///< unstable update / risky pivot
  // Pivot provenance: the dual/primal split of `pivots`.
  std::size_t dual_pivots = 0;       ///< pivots made by the dual simplex
  std::size_t phase1_pivots = 0;     ///< pivots made by primal phase 1
  /// Warm node re-solves that went dual repair -> primal phase 2 without
  /// ever entering primal phase 1 (the dual path paying off).
  std::size_t dual_phase1_avoided = 0;
  // Presolve accounting (cold solves with Options::presolve on).
  std::size_t presolve_rows_removed = 0;     ///< rows dropped before solving
  std::size_t presolve_cols_removed = 0;     ///< columns fixed/substituted out
  std::size_t presolve_bounds_tightened = 0; ///< variable bounds sharpened

  /// Folds another solve into this one: work counters add up, the
  /// basis/fill snapshot keeps the most recent nonzero reading.
  void merge(const SolveStats& o) {
    pivots += o.pivots;
    kernel_flops += o.kernel_flops;
    kernel_dense_flops += o.kernel_dense_flops;
    ft_updates += o.ft_updates;
    ft_fill_nnz += o.ft_fill_nnz;
    refactor_interval_hits += o.refactor_interval_hits;
    refactor_fill_hits += o.refactor_fill_hits;
    refactor_drift_hits += o.refactor_drift_hits;
    dual_pivots += o.dual_pivots;
    phase1_pivots += o.phase1_pivots;
    dual_phase1_avoided += o.dual_phase1_avoided;
    presolve_rows_removed += o.presolve_rows_removed;
    presolve_cols_removed += o.presolve_cols_removed;
    presolve_bounds_tightened += o.presolve_bounds_tightened;
    refactorizations += o.refactorizations;
    if (o.basis_nnz != 0) basis_nnz = o.basis_nnz;
    if (o.lu_fill != 0) lu_fill = o.lu_fill;
  }

  /// Dense-kernel work per unit of work the sparse kernels actually did
  /// (the "flops per pivot" reduction factor); 1.0 when nothing ran.
  double flop_reduction() const {
    return kernel_flops == 0 ? 1.0
                             : static_cast<double>(kernel_dense_flops) /
                                   static_cast<double>(kernel_flops);
  }
};

struct Solution {
  Status status = Status::IterationLimit;
  double objective = 0.0;
  std::vector<double> x;       ///< primal values (structural columns only)
  std::vector<double> duals;   ///< one multiplier per row (phase-2 y)
  std::size_t iterations = 0;  ///< total pivots (primal + dual)
  double max_primal_violation = 0.0;  ///< diagnostic, after polishing
  /// Optimal basis snapshot (empty unless status == Optimal); feed back via
  /// Options::warm_start to accelerate re-solves.
  Basis basis;
  /// True when the warm-start basis was actually used (false when absent,
  /// incompatible, or abandoned for a cold solve).
  bool warm_started = false;
  /// Sparsity accounting for this solve (the tableau that produced the
  /// returned answer; abandoned warm attempts are not included).
  SolveStats stats;
};

class Tableau;  // the engine's storage and simplex loops (simplex.cpp)

/// A reusable simplex engine. It keeps every array a solve needs from one
/// solve to the next: the scaled CSC/CSR copy of the model, the bound,
/// value, status, Devex and scatter arrays, the FTRAN/BTRAN work vectors and
/// two LU buffers (a singular rebuild leaves the current factors intact).
/// Storage only grows, so after one warm-up a 0-pivot warm re-solve
/// allocates nothing beyond the returned Solution. Every result is
/// bit-identical to a fresh engine's, whatever the engine solved before.
/// One engine serves one thread at a time; branch-and-bound gives each
/// concurrent worker its own for the length of one search.
class Solver {
 public:
  Solver();
  ~Solver();
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;

  /// Solves the LP; deterministic for a fixed model and options.
  Solution solve(const Model& model, const Options& options = {});

 private:
  std::unique_ptr<Tableau> tableau_;
};

/// Solves the LP with a temporary engine (Solver().solve(model, options)).
Solution solve(const Model& model, const Options& options = {});

}  // namespace hslb::lp

// Linear-programming model container:
//
//   minimize    c^T x
//   subject to  rowlb <= A x <= rowub
//               collb <=   x <= colub
//
// This mirrors the slice of CLP's interface that MINOTAUR's LP/NLP
// branch-and-bound needs: append columns/rows, tighten bounds (for
// branching), append rows (for outer-approximation cuts).
#pragma once

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "linalg/sparse.hpp"

namespace hslb::lp {

/// +infinity sentinel for free bounds.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One sparse coefficient: (column index, value).
using Coeff = std::pair<std::size_t, double>;

/// One column-view entry: (.index = row, .value = coefficient).
using ColEntry = linalg::SparseEntry;

/// Mutable LP model; the solver reads it, branching mutates bound copies.
class Model {
 public:
  /// Adds a variable; returns its column index.
  std::size_t add_variable(double lb, double ub, double objective);

  /// Adds a range constraint lb <= sum coeffs <= ub; returns its row index.
  /// Coefficients must reference existing columns; duplicate column entries
  /// within one row are summed, and entries summing to exactly zero are
  /// dropped (they would otherwise pollute the sparsity pattern).
  std::size_t add_constraint(std::vector<Coeff> coeffs, double lb, double ub);

  /// Equality convenience (lb == ub == rhs).
  std::size_t add_equality(std::vector<Coeff> coeffs, double rhs);

  /// Bound mutation (used by branch-and-bound).
  void set_col_lower(std::size_t col, double lb);
  void set_col_upper(std::size_t col, double ub);
  double col_lower(std::size_t col) const;
  double col_upper(std::size_t col) const;

  void set_objective(std::size_t col, double c);
  double objective(std::size_t col) const;

  std::size_t num_cols() const { return col_lb_.size(); }
  std::size_t num_rows() const { return row_lb_.size(); }

  const std::vector<Coeff>& row(std::size_t r) const;
  double row_lower(std::size_t r) const;
  double row_upper(std::size_t r) const;

  /// Column view of the constraint matrix: the nonzeros of column c ordered
  /// by increasing row index. Maintained incrementally as constraints are
  /// appended (rows are append-only, so entries arrive already ordered);
  /// branch-and-bound children that add OA cut rows never pay a rebuild.
  const std::vector<ColEntry>& col(std::size_t c) const;

  /// Total nonzeros in the constraint matrix.
  std::size_t nnz() const { return nnz_; }

  /// Evaluates row r's linear expression at x.
  double row_activity(std::size_t r, std::span<const double> x) const;

  /// True when x satisfies all row and column bounds within `tol`.
  bool is_feasible(std::span<const double> x, double tol = 1e-7) const;

 private:
  std::vector<double> col_lb_, col_ub_, obj_;
  std::vector<std::vector<Coeff>> rows_;
  std::vector<std::vector<ColEntry>> cols_;  // column view, kept in sync
  std::size_t nnz_ = 0;
  std::vector<double> row_lb_, row_ub_;
};

}  // namespace hslb::lp

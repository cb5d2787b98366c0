// Matrix decompositions and linear solvers:
//   - Householder QR (the Fit step's bounded least-squares solves; its R
//     diagonal is rank-revealing enough for those sizes),
//   - LU with partial pivoting (dense square solves; the simplex no longer
//     uses it: it is the dense oracle the sparse-factor tests check
//     SparseLU and UpdatableLU against),
//   - SparseLU with Markowitz pivoting (simplex basis refactorization on
//     the sparse column view; solves skip exact zeros, so hypersparse
//     right-hand sides cost O(reached nonzeros), not O(n^2)),
//   - UpdatableLU: a SparseLU wrapped with Forrest-Tomlin column
//     replacement, so a simplex pivot updates the factors in place instead
//     of growing a product-form eta file.
#pragma once

#include <cstdint>
#include <optional>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace hslb::linalg {

/// Householder QR factorization A = Q R for rows >= cols.
class QR {
 public:
  explicit QR(const Matrix& a);

  /// Least-squares solve: minimizes ||A x - b||_2. Requires full column
  /// rank (throws ContractViolation on numerically rank-deficient R).
  Vector solve(std::span<const double> b) const;

  /// Absolute value of the smallest diagonal entry of R (rank indicator).
  double min_abs_diag_r() const;

 private:
  Matrix qr_;           // Householder vectors below diagonal, R on/above
  Vector tau_;          // Householder coefficients
  std::size_t rows_, cols_;
};

/// LU factorization with partial pivoting: P A = L U.
class LU {
 public:
  /// Returns std::nullopt if A is singular to working precision.
  static std::optional<LU> factor(const Matrix& a, double pivot_tol = 1e-12);

  /// Solves A x = b.
  Vector solve(std::span<const double> b) const;

  /// Solves A^T x = b.
  Vector solve_transpose(std::span<const double> b) const;

 private:
  LU(Matrix lu, std::vector<std::size_t> perm)
      : lu_(std::move(lu)), perm_(std::move(perm)) {}
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

/// Sparse LU factorization with Markowitz pivoting.
///
/// Factors a square matrix given as sparse columns (the simplex basis: a
/// mix of structural columns and slack singletons). The pivot at each
/// elimination step minimizes the Markowitz count (r-1)(c-1) among entries
/// passing a relative threshold test, which keeps fill-in — and therefore
/// the flop count of every subsequent FTRAN/BTRAN — near the nonzero count
/// of the basis itself. Both solves skip exact zeros in the right-hand
/// side, so hypersparse inputs (a unit vector, a two-nonzero cut column)
/// touch only the entries they can reach.
class SparseLU {
 public:
  /// Returns std::nullopt when the matrix is singular to working
  /// precision (no entry passes the threshold test at some step).
  /// Each column's entries must carry strictly increasing row indices.
  static std::optional<SparseLU> factor(
      std::size_t n, const std::vector<std::vector<SparseEntry>>& cols,
      double threshold = 0.1);

  /// Solves A x = b; b is indexed by rows, the result by columns.
  Vector solve(Vector b) const;

  /// Solves A^T x = b; b is indexed by columns, the result by rows.
  Vector solve_transpose(Vector b) const;

  /// Fill: stored nonzeros of L and U including the n pivots.
  std::size_t nnz() const { return fill_; }

 private:
  SparseLU() = default;
  friend class UpdatableLU;

  std::size_t n_ = 0;
  std::size_t fill_ = 0;
  std::vector<std::size_t> pivot_row_;  // r_k, original row of step k
  std::vector<std::size_t> pivot_col_;  // c_k, original column of step k
  std::vector<double> pivot_;           // U diagonal of step k
  /// L column k: multipliers (original row i, m_ik), i pivotal later.
  std::vector<std::vector<SparseEntry>> lcol_;
  /// U row k: (original column j, u_kj), j pivotal later. U^T scatter solve.
  std::vector<std::vector<SparseEntry>> urow_;
  /// U column of step k: (earlier step l, u_lk). Backward scatter solve.
  std::vector<std::vector<SparseEntry>> ucol_;
};

/// Forrest-Tomlin updatable factorization of a simplex basis.
///
/// Wraps a fresh SparseLU in the maintained form B = L R^{-1} U: L is the
/// static lower factor of the initial Markowitz factorization, R a file of
/// row etas accumulated by updates, and U an upper factor kept triangular
/// under a mutable elimination order. Replacing basis column p:
///
///   1. the spike v = R L^{-1} a_q (captured by the preceding
///      solve_entering call) becomes the new column of U at p's step t;
///   2. step t cyclically permutes to the end of the elimination order, so
///      the old row t — now a below-diagonal row spike — is eliminated
///      against the interior rows it crosses; the multipliers become one
///      new row eta of R;
///   3. the new diagonal is what remains of the spike after that
///      elimination; when it is negligible next to the spike's scale the
///      update is rejected (Unstable) and the caller must refactorize.
///
/// Interior U rows are never modified numerically — only row/column t are
/// deleted (by generation stamps, lazily skipped in solves) and the spike
/// column inserted — which is what keeps fill growth near the spike nonzero
/// count instead of the O(m) a product-form eta pays on dense directions.
class UpdatableLU {
 public:
  explicit UpdatableLU(const SparseLU& base);

  /// Solves B x = b; b is indexed by rows, the result by basis positions.
  Vector solve(Vector b) const;

  /// Solves B^T x = b; b is indexed by basis positions, result by rows.
  Vector solve_transpose(Vector b) const;

  /// solve() that also captures the post-L, post-R spike for a subsequent
  /// update() of whichever basis position the caller pivots on.
  Vector solve_entering(Vector b);

  enum class UpdateResult { Ok, Unstable };

  /// Forrest-Tomlin replacement of basis column `basis_pos` with the column
  /// last passed to solve_entering. On Unstable the factorization is left
  /// invalid and the caller MUST refactorize from scratch.
  UpdateResult update(std::size_t basis_pos);

  /// Stored factor nonzeros: the fresh L+U fill plus everything updates
  /// appended (spike columns and row-eta terms; entries invalidated by
  /// updates still count — this is the storage-growth view the adaptive
  /// refactorization trigger watches).
  std::size_t nnz() const { return base_fill_ + update_fill_; }

  /// Fresh-factorization fill (L+U nonzeros incl. diagonals).
  std::size_t base_fill() const { return base_fill_; }

  /// Nonzeros appended by updates since factorization.
  std::size_t update_fill() const { return update_fill_; }

  /// Column replacements applied since factorization.
  std::size_t updates() const { return updates_; }

 private:
  /// One stored U entry with the partner's generation at insertion time; the
  /// entry is live while the stamp still matches (lazy deletion).
  struct UEntry {
    std::size_t other;  ///< partner step (column step in urows_, row in ucols_)
    double value;
    std::uint32_t gen;
  };

  std::size_t n_ = 0;
  std::size_t base_fill_ = 0;
  std::size_t update_fill_ = 0;
  std::size_t updates_ = 0;

  // Static L (never modified by updates).
  std::vector<std::size_t> lrow_;  ///< original row of step k (creation order)
  std::vector<std::vector<SparseEntry>> lcol_;

  // R: row etas appended by updates, applied in order after L^{-1}.
  struct RowEta {
    std::size_t target;               ///< step whose row was eliminated
    std::vector<SparseEntry> terms;   ///< (pivotal step s, multiplier)
  };
  std::vector<RowEta> retas_;

  // U in step space under a mutable elimination order.
  std::vector<double> diag_;
  std::vector<std::size_t> col_of_step_;  ///< fixed: basis position of step
  std::vector<std::size_t> step_of_col_;  ///< its inverse
  std::vector<std::uint32_t> rowgen_, colgen_;
  std::vector<std::vector<UEntry>> urows_, ucols_;
  std::vector<std::size_t> seq_;  ///< steps in current elimination order
  std::vector<std::size_t> pos_;  ///< position of each step within seq_

  // Spike captured by solve_entering (row-indexed, post L and R).
  Vector spike_;
  bool spike_valid_ = false;

  // update() workspaces (reserve-once).
  std::vector<double> rowval_;
  std::vector<std::uint8_t> inrow_;
  std::vector<std::pair<std::size_t, std::size_t>> heap_;  // (pos, step)
};

/// Convenience: least-squares solution via QR.
Vector lstsq(const Matrix& a, std::span<const double> b);

}  // namespace hslb::linalg

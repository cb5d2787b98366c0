// Matrix decompositions and linear solvers:
//   - Householder QR (the Fit step's bounded least-squares solves; its R
//     diagonal is rank-revealing enough for those sizes),
//   - LU with partial pivoting (dense square solves; the simplex does not
//     use it: it is the dense oracle the sparse-factor tests check
//     UpdatableLU against),
//   - UpdatableLU: sparse Markowitz LU of a simplex basis, factored in
//     place into retained storage, with Forrest-Tomlin column replacement,
//     so a simplex pivot updates the factors instead of growing a
//     product-form eta file; solves skip exact zeros, so hypersparse
//     right-hand sides cost O(reached nonzeros), not O(n^2).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace hslb::linalg {

/// Householder QR factorization A = Q R for rows >= cols, factored in place
/// into storage retained across factor() calls and solved into caller
/// spans, so an object refactored for matrices no larger than an earlier one
/// allocates nothing.
class QR {
 public:
  /// Factors A (rows >= cols >= 1), replacing any previous factors.
  void factor(const Matrix& a);

  /// Least-squares solve: x (cols entries) minimizes ||A x - b||_2. b (rows
  /// entries) is overwritten: it serves as the work vector. Requires full
  /// column rank (throws ContractViolation on numerically rank-deficient R).
  void solve(std::span<double> b, std::span<double> x) const;

  /// Absolute value of the smallest diagonal entry of R (rank indicator).
  double min_abs_diag_r() const;

 private:
  // Column-major: Householder vectors below the diagonal, R on and above.
  std::vector<double> qr_;
  Vector tau_;  // Householder coefficients
  std::size_t rows_ = 0, cols_ = 0;
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

/// Forrest-Tomlin updatable sparse LU factorization of a simplex basis.
///
/// refactor() factors a square matrix given as sparse columns (the simplex
/// basis: a mix of structural columns and slack singletons) by Markowitz
/// elimination. The pivot at each step minimizes the Markowitz count
/// (r-1)(c-1) among entries passing a relative threshold test, which keeps
/// fill-in — and therefore the flop count of every later FTRAN/BTRAN — near
/// the nonzero count of the basis itself. Every array, the elimination's
/// working copy included, is retained across refactor() calls, so an object
/// reused for bases of the same or smaller size factors without touching
/// the heap. Solves skip exact zeros in the right-hand side, so hypersparse
/// inputs (a unit vector, a two-nonzero cut column) touch only the entries
/// they can reach, and write into caller-provided spans.
///
/// Between refactorizations the factors are kept in the form
/// B = L R^{-1} U: L is the static lower factor of the Markowitz
/// elimination, R a file of row etas accumulated by updates, and U an upper
/// factor kept triangular under a mutable elimination order. Replacing basis
/// column p:
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
  /// Factors the n x n matrix whose column j is cols[j] (entries with
  /// strictly increasing row indices; exact zeros are skipped), dropping any
  /// previous factors and updates. Returns false when the matrix is singular
  /// to working precision (no entry passes the threshold test at some step);
  /// the object then holds no factors (solves fail their size precondition)
  /// until the next successful refactor, so a caller that must keep its
  /// current factors refactors a second object and swaps on success.
  bool refactor(std::span<const std::vector<SparseEntry>> cols,
                double threshold = 0.1);

  /// Solves B x = b; b is indexed by rows and is overwritten (it serves as
  /// the work vector), x is indexed by basis positions.
  void solve(std::span<double> b, std::span<double> x) const;

  /// Solves B^T w = b; b is indexed by basis positions and is overwritten,
  /// w is indexed by rows.
  void solve_transpose(std::span<double> b, std::span<double> w) const;

  /// solve() that also captures the post-L, post-R spike for a subsequent
  /// update() of whichever basis position the caller pivots on.
  void solve_entering(std::span<double> b, std::span<double> x);

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

  /// y = R L^{-1} b in place, kept row-indexed (step s lives at b[lrow_[s]]).
  void apply_l_and_r(std::span<double> b) const;
  /// U x = y along the current elimination order, descending.
  void backward_u(std::span<double> b, std::span<double> x) const;

  std::size_t n_ = 0;
  std::size_t base_fill_ = 0;
  std::size_t update_fill_ = 0;
  std::size_t updates_ = 0;

  // Static L (never modified by updates): column k holds the multipliers
  // (original row i, m_ik) of elimination step k, rows pivotal later.
  // Column k is lent_[lstart_[k], lstart_[k + 1]).
  std::vector<std::size_t> lrow_;  ///< original row of step k
  std::vector<std::size_t> lstart_;
  std::vector<SparseEntry> lent_;

  // R: row etas appended by updates, applied in order after L^{-1}. Eta e
  // eliminates step reta_target_[e] with the terms (pivotal step s,
  // multiplier) in reta_terms_[reta_start_[e], reta_start_[e+1]).
  std::vector<std::size_t> reta_target_;
  std::vector<std::size_t> reta_start_;
  std::vector<SparseEntry> reta_terms_;

  // U in step space under a mutable elimination order. The outer vectors
  // only grow, so the inner ones keep their capacity across refactors.
  std::vector<double> diag_;
  std::vector<std::size_t> col_of_step_;  ///< fixed: basis position of step
  std::vector<std::size_t> step_of_col_;  ///< its inverse
  std::vector<std::uint32_t> rowgen_, colgen_;
  std::vector<std::vector<UEntry>> urows_, ucols_;
  std::vector<std::size_t> seq_;  ///< steps in current elimination order
  std::vector<std::size_t> pos_;  ///< position of each step within seq_

  // Spike captured by solve_entering (row-indexed, post L and R).
  std::vector<double> spike_;
  bool spike_valid_ = false;

  // update() workspaces.
  std::vector<double> rowval_;
  std::vector<std::uint8_t> inrow_;
  std::vector<std::pair<std::size_t, std::size_t>> heap_;  // (pos, step)

  // refactor() workspaces: the active submatrix column-wise, the columns
  // that may still hold an entry in each row, and U gathered by column.
  std::vector<std::vector<SparseEntry>> work_;
  std::vector<std::vector<std::size_t>> rowocc_;
  std::vector<std::vector<SparseEntry>> ucol_by_col_;
  std::vector<std::size_t> rowcount_;
  std::vector<std::uint8_t> col_done_;
  std::vector<std::size_t> singletons_;
  Scatter scatter_{0};
};

}  // namespace hslb::linalg

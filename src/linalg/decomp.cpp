#include "linalg/decomp.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

namespace hslb::linalg {

QR::QR(const Matrix& a) : qr_(a), rows_(a.rows()), cols_(a.cols()) {
  HSLB_EXPECTS(rows_ >= cols_);
  tau_.assign(cols_, 0.0);
  for (std::size_t k = 0; k < cols_; ++k) {
    // Householder vector for column k over rows k..rows-1.
    double norm = 0.0;
    for (std::size_t i = k; i < rows_; ++i) norm += qr_(i, k) * qr_(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      tau_[k] = 0.0;
      continue;
    }
    const double alpha = qr_(k, k) >= 0 ? -norm : norm;
    const double v0 = qr_(k, k) - alpha;
    // Normalize so that the implicit v has v[k] = 1.
    for (std::size_t i = k + 1; i < rows_; ++i) qr_(i, k) /= v0;
    tau_[k] = -v0 / alpha;  // = 2 / (v^T v) with v[k]=1 normalization
    qr_(k, k) = alpha;      // R diagonal
    // Apply H = I - tau v v^T to remaining columns.
    for (std::size_t j = k + 1; j < cols_; ++j) {
      double s = qr_(k, j);
      for (std::size_t i = k + 1; i < rows_; ++i) s += qr_(i, k) * qr_(i, j);
      s *= tau_[k];
      qr_(k, j) -= s;
      for (std::size_t i = k + 1; i < rows_; ++i) qr_(i, j) -= s * qr_(i, k);
    }
  }
}

double QR::min_abs_diag_r() const {
  double m = std::fabs(qr_(0, 0));
  for (std::size_t k = 1; k < cols_; ++k) m = std::min(m, std::fabs(qr_(k, k)));
  return m;
}

Vector QR::solve(std::span<const double> b) const {
  HSLB_EXPECTS(b.size() == rows_);
  HSLB_EXPECTS(min_abs_diag_r() > 1e-13 * (1.0 + std::fabs(qr_(0, 0))));
  Vector y(b.begin(), b.end());
  // Apply Q^T: product of Householder reflections in order.
  for (std::size_t k = 0; k < cols_; ++k) {
    if (tau_[k] == 0.0) continue;
    double s = y[k];
    for (std::size_t i = k + 1; i < rows_; ++i) s += qr_(i, k) * y[i];
    s *= tau_[k];
    y[k] -= s;
    for (std::size_t i = k + 1; i < rows_; ++i) y[i] -= s * qr_(i, k);
  }
  // Back-substitute R x = y[0..cols).
  Vector x(cols_);
  for (std::size_t kk = cols_; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    double v = y[k];
    for (std::size_t j = k + 1; j < cols_; ++j) v -= qr_(k, j) * x[j];
    x[k] = v / qr_(k, k);
  }
  return x;
}

std::optional<LU> LU::factor(const Matrix& a, double pivot_tol) {
  HSLB_EXPECTS(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix lu = a;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  // Singularity is judged relative to the matrix scale: an absolute
  // threshold misfires badly when entries span many orders of magnitude
  // (simplex bases mix +-1 slack columns with O(1e4) cut coefficients).
  double scale = 0.0;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) scale = std::max(scale, std::fabs(lu(r, c)));
  pivot_tol = std::max(pivot_tol, 1e-11 * scale);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t piv = k;
    double best = std::fabs(lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best <= pivot_tol) return std::nullopt;
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu(k, j), lu(piv, j));
      std::swap(perm[k], perm[piv]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      lu(i, k) /= lu(k, k);
      const double m = lu(i, k);
      if (m == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu(i, j) -= m * lu(k, j);
    }
  }
  return LU(std::move(lu), std::move(perm));
}

Vector LU::solve(std::span<const double> b) const {
  const std::size_t n = lu_.rows();
  HSLB_EXPECTS(b.size() == n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[perm_[i]];
    for (std::size_t k = 0; k < i; ++k) v -= lu_(i, k) * y[k];
    y[i] = v;
  }
  Vector x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double v = y[i];
    for (std::size_t k = i + 1; k < n; ++k) v -= lu_(i, k) * x[k];
    x[i] = v / lu_(i, i);
  }
  return x;
}

Vector LU::solve_transpose(std::span<const double> b) const {
  // A^T x = b  with  P A = L U  =>  A^T = (P^T L U)^T = U^T L^T P.
  // Solve U^T z = b, then L^T w = z, then x = P^T w.
  const std::size_t n = lu_.rows();
  HSLB_EXPECTS(b.size() == n);
  Vector z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= lu_(k, i) * z[k];
    z[i] = v / lu_(i, i);
  }
  Vector w(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double v = z[i];
    for (std::size_t k = i + 1; k < n; ++k) v -= lu_(k, i) * w[k];
    w[i] = v;
  }
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = w[i];
  return x;
}

std::optional<SparseLU> SparseLU::factor(
    std::size_t n, const std::vector<std::vector<SparseEntry>>& cols,
    double threshold) {
  HSLB_EXPECTS(cols.size() == n);
  SparseLU lu;
  lu.n_ = n;
  lu.pivot_row_.resize(n);
  lu.pivot_col_.resize(n);
  lu.pivot_.resize(n);
  lu.lcol_.resize(n);
  lu.urow_.resize(n);
  lu.ucol_.resize(n);
  if (n == 0) return lu;

  // Working copy of the active submatrix, column-wise. rowocc[r] lists the
  // columns that may still hold an entry in row r (lazily cleaned: entries
  // killed by cancellation are skipped at use time).
  std::vector<std::vector<SparseEntry>> work(n);
  std::vector<std::vector<std::size_t>> rowocc(n);
  std::vector<std::size_t> rowcount(n, 0);
  std::vector<bool> row_done(n, false), col_done(n, false);
  double scale = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (const auto& [r, v] : cols[j]) {
      HSLB_EXPECTS(r < n);
      if (v == 0.0) continue;
      work[j].push_back({r, v});
      rowocc[r].push_back(j);
      ++rowcount[r];
      scale = std::max(scale, std::fabs(v));
    }
  }
  const double abs_tol = std::max(1e-12, 1e-11 * scale);

  // Step index the U fill by destination column, so the column-wise view
  // (needed for the zero-skipping backward solve) assembles as we pivot.
  std::vector<std::vector<SparseEntry>> ucol_by_col(n);
  std::vector<SparseEntry> mults;
  Scatter scatter(n);

  // Singleton columns pivot at zero Markowitz cost and produce no fill, so
  // they never need the full pivot scan. Simplex bases are dominated by
  // slack/selector singletons, and every elimination step can shrink more
  // columns to size one, so this stack handles almost every step; entries
  // are validated lazily at pop time (a column may have grown stale).
  std::vector<std::size_t> singletons;
  for (std::size_t j = 0; j < n; ++j)
    if (work[j].size() == 1) singletons.push_back(j);

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t best_r = 0, best_c = 0;
    double best_v = 0.0;
    bool found = false;
    // Fast path: any singleton column whose entry clears the absolute
    // floor is an optimal (cost-0, fill-free) Markowitz pivot.
    while (!singletons.empty() && !found) {
      const std::size_t j = singletons.back();
      singletons.pop_back();
      if (col_done[j] || work[j].size() != 1) continue;  // stale entry
      if (std::fabs(work[j][0].value) < abs_tol) continue;  // leave to scan
      found = true;
      best_c = j;
      best_r = work[j][0].index;
      best_v = work[j][0].value;
    }
    // General Markowitz search: minimize (rowcount-1)(colcount-1) over the
    // entries passing both the relative column threshold and the absolute
    // singularity floor. Deterministic tie-break: larger magnitude, then
    // first seen (columns ascending, entries in storage order); a cost-0
    // pivot cannot be improved on, so the scan stops there.
    if (!found) {
      std::size_t best_cost = 0;
      for (std::size_t j = 0; j < n && (!found || best_cost > 0); ++j) {
        if (col_done[j] || work[j].empty()) continue;
        double colmax = 0.0;
        for (const auto& e : work[j])
          colmax = std::max(colmax, std::fabs(e.value));
        const double accept = std::max(abs_tol, threshold * colmax);
        const std::size_t ccost = work[j].size() - 1;
        for (const auto& [r, v] : work[j]) {
          if (std::fabs(v) < accept) continue;
          const std::size_t cost = (rowcount[r] - 1) * ccost;
          if (!found || cost < best_cost ||
              (cost == best_cost && std::fabs(v) > std::fabs(best_v))) {
            found = true;
            best_cost = cost;
            best_r = r;
            best_c = j;
            best_v = v;
          }
          if (best_cost == 0) break;
        }
      }
    }
    if (!found) return std::nullopt;  // singular to working precision

    lu.pivot_row_[k] = best_r;
    lu.pivot_col_[k] = best_c;
    lu.pivot_[k] = best_v;
    row_done[best_r] = true;
    col_done[best_c] = true;

    // Multipliers from the pivot column's remaining active entries.
    mults.clear();
    for (const auto& [r, v] : work[best_c]) {
      if (r == best_r) continue;
      mults.push_back({r, v / best_v});
      --rowcount[r];
    }
    lu.lcol_[k] = mults;
    --rowcount[best_r];
    work[best_c].clear();

    if (mults.empty()) {
      // Fill-free elimination: dropping the pivot row from a column is a
      // plain erase; no scatter pass and no occupancy updates needed.
      for (const std::size_t j : rowocc[best_r]) {
        if (col_done[j]) continue;
        std::vector<SparseEntry>& wj = work[j];
        for (std::size_t t = 0; t < wj.size(); ++t) {
          if (wj[t].index != best_r) continue;
          lu.urow_[k].push_back({j, wj[t].value});
          ucol_by_col[j].push_back({k, wj[t].value});
          wj.erase(wj.begin() + static_cast<std::ptrdiff_t>(t));
          if (wj.size() == 1) singletons.push_back(j);
          break;
        }
      }
      rowocc[best_r].clear();
      continue;
    }

    // Eliminate the pivot row from every column still holding it.
    for (const std::size_t j : rowocc[best_r]) {
      if (col_done[j]) continue;
      double u = 0.0;
      bool present = false;
      for (const auto& [r, v] : work[j]) {
        if (r == best_r) {
          u = v;
          present = true;
          break;
        }
      }
      if (!present) continue;  // stale occupancy entry (cancelled earlier)
      lu.urow_[k].push_back({j, u});
      ucol_by_col[j].push_back({k, u});

      // column j := column j - (u / pivot) * pivot column, active rows only.
      // Existing rows scatter first, so pattern positions >= old_count are
      // fill-in that needs occupancy/count bookkeeping.
      scatter.clear();
      for (const auto& [r, v] : work[j]) {
        if (r != best_r) scatter.add(r, v);
      }
      const std::size_t old_count = scatter.pattern().size();
      for (const auto& [i, m] : mults) scatter.add(i, -m * u);
      std::vector<SparseEntry>& out = work[j];
      out.clear();
      for (std::size_t t = 0; t < scatter.pattern().size(); ++t) {
        const std::size_t r = scatter.pattern()[t];
        const double v = scatter[r];
        const bool is_fill = t >= old_count;
        if (v == 0.0) {
          if (!is_fill) --rowcount[r];  // cancellation killed an entry
          continue;
        }
        if (is_fill) {
          ++rowcount[r];
          rowocc[r].push_back(j);
        }
        out.push_back({r, v});
      }
      if (out.size() == 1) singletons.push_back(j);
    }
    // Row best_r is resolved; its occupancy list is dead weight now.
    rowocc[best_r].clear();
  }

  for (std::size_t k = 0; k < n; ++k) lu.ucol_[k] = std::move(ucol_by_col[lu.pivot_col_[k]]);
  lu.fill_ = n;
  for (std::size_t k = 0; k < n; ++k) lu.fill_ += lu.lcol_[k].size() + lu.urow_[k].size();
  return lu;
}

Vector SparseLU::solve(Vector b) const {
  HSLB_EXPECTS(b.size() == n_);
  // Forward: apply L^{-1} (skip steps whose pivot-row value is exactly 0 —
  // the hypersparsity fast path for unit/cut right-hand sides).
  for (std::size_t k = 0; k < n_; ++k) {
    const double t = b[pivot_row_[k]];
    if (t == 0.0) continue;
    for (const auto& [i, m] : lcol_[k]) b[i] -= m * t;
  }
  // Backward: U x = y in scatter form, descending steps; x indexed by the
  // original column of each step.
  Vector x(n_, 0.0);
  for (std::size_t kk = n_; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    const double xv = b[pivot_row_[k]] / pivot_[k];
    x[pivot_col_[k]] = xv;
    if (xv == 0.0) continue;
    for (const auto& [l, u] : ucol_[k]) b[pivot_row_[l]] -= u * xv;
  }
  return x;
}

Vector SparseLU::solve_transpose(Vector b) const {
  HSLB_EXPECTS(b.size() == n_);
  // U^T z = b in scatter form, ascending steps (z overwrites b at the
  // step's pivot column slot).
  Vector z(n_, 0.0);
  for (std::size_t k = 0; k < n_; ++k) {
    const double zk = b[pivot_col_[k]] / pivot_[k];
    z[k] = zk;
    if (zk == 0.0) continue;
    for (const auto& [j, u] : urow_[k]) b[j] -= u * zk;
  }
  // L^T w = z, descending steps, gather form; w indexed by original rows.
  Vector w(n_, 0.0);
  for (std::size_t kk = n_; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    double v = z[k];
    for (const auto& [i, m] : lcol_[k]) v -= m * w[i];
    w[pivot_row_[k]] = v;
  }
  return w;
}

UpdatableLU::UpdatableLU(const SparseLU& base)
    : n_(base.n_),
      base_fill_(base.fill_),
      lrow_(base.pivot_row_),
      lcol_(base.lcol_),
      diag_(base.pivot_),
      col_of_step_(base.pivot_col_) {
  rowgen_.assign(n_, 0);
  colgen_.assign(n_, 0);
  urows_.resize(n_);
  ucols_.resize(n_);
  seq_.resize(n_);
  pos_.resize(n_);
  step_of_col_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    seq_[k] = k;
    pos_[k] = k;
    step_of_col_[col_of_step_[k]] = k;
  }
  // Base U entries arrive column-wise as (earlier step l, u_lk); mirror them
  // into the row-wise view so row-spike elimination can walk row contents.
  for (std::size_t k = 0; k < n_; ++k) {
    for (const auto& [l, u] : base.ucol_[k]) {
      ucols_[k].push_back({l, u, 0});
      urows_[l].push_back({k, u, 0});
    }
  }
  spike_.assign(n_, 0.0);
  rowval_.assign(n_, 0.0);
  inrow_.assign(n_, 0);
}

Vector UpdatableLU::solve(Vector b) const {
  HSLB_EXPECTS(b.size() == n_);
  // y = R L^{-1} b, kept row-indexed (step s lives at b[lrow_[s]]); zero
  // pivot-row values skip their L column — the hypersparsity fast path.
  for (std::size_t k = 0; k < n_; ++k) {
    const double t = b[lrow_[k]];
    if (t == 0.0) continue;
    for (const auto& [i, m] : lcol_[k]) b[i] -= m * t;
  }
  for (const RowEta& e : retas_) {
    double acc = 0.0;
    for (const auto& [s, mult] : e.terms) acc += mult * b[lrow_[s]];
    if (acc != 0.0) b[lrow_[e.target]] -= acc;
  }
  // Backward: U x = y along the current elimination order, descending.
  Vector x(n_, 0.0);
  for (std::size_t kk = n_; kk > 0; --kk) {
    const std::size_t s = seq_[kk - 1];
    const double xv = b[lrow_[s]] / diag_[s];
    x[col_of_step_[s]] = xv;
    if (xv == 0.0) continue;
    for (const UEntry& e : ucols_[s]) {
      if (e.gen == rowgen_[e.other]) b[lrow_[e.other]] -= e.value * xv;
    }
  }
  return x;
}

Vector UpdatableLU::solve_entering(Vector b) {
  HSLB_EXPECTS(b.size() == n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const double t = b[lrow_[k]];
    if (t == 0.0) continue;
    for (const auto& [i, m] : lcol_[k]) b[i] -= m * t;
  }
  for (const RowEta& e : retas_) {
    double acc = 0.0;
    for (const auto& [s, mult] : e.terms) acc += mult * b[lrow_[s]];
    if (acc != 0.0) b[lrow_[e.target]] -= acc;
  }
  spike_ = b;  // the post-L, post-R vector IS the Forrest-Tomlin spike
  spike_valid_ = true;
  Vector x(n_, 0.0);
  for (std::size_t kk = n_; kk > 0; --kk) {
    const std::size_t s = seq_[kk - 1];
    const double xv = b[lrow_[s]] / diag_[s];
    x[col_of_step_[s]] = xv;
    if (xv == 0.0) continue;
    for (const UEntry& e : ucols_[s]) {
      if (e.gen == rowgen_[e.other]) b[lrow_[e.other]] -= e.value * xv;
    }
  }
  return x;
}

Vector UpdatableLU::solve_transpose(Vector b) const {
  HSLB_EXPECTS(b.size() == n_);
  // U^T z = b along the elimination order, ascending; z in step space.
  Vector z(n_, 0.0);
  for (std::size_t kk = 0; kk < n_; ++kk) {
    const std::size_t s = seq_[kk];
    const double zk = b[col_of_step_[s]] / diag_[s];
    z[s] = zk;
    if (zk == 0.0) continue;
    for (const UEntry& e : urows_[s]) {
      if (e.gen == colgen_[e.other]) b[col_of_step_[e.other]] -= e.value * zk;
    }
  }
  // R^T: each eta (I - e_t m^T) transposes to z[s] -= m_s z[t], reverse order.
  for (auto it = retas_.rbegin(); it != retas_.rend(); ++it) {
    const double zt = z[it->target];
    if (zt == 0.0) continue;
    for (const auto& [s, mult] : it->terms) z[s] -= mult * zt;
  }
  // L^T w = z, descending creation order, gather form.
  Vector w(n_, 0.0);
  for (std::size_t kk = n_; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    double v = z[k];
    for (const auto& [i, m] : lcol_[k]) v -= m * w[i];
    w[lrow_[k]] = v;
  }
  return w;
}

UpdatableLU::UpdateResult UpdatableLU::update(std::size_t basis_pos) {
  HSLB_EXPECTS(spike_valid_);
  HSLB_EXPECTS(basis_pos < n_);
  spike_valid_ = false;
  // Steps keep their basis position for life, so the step to replace is a
  // direct inverse lookup.
  const std::size_t t = step_of_col_[basis_pos];

  // Live entries of row t seed the row-spike scatter; they are processed in
  // current elimination order (a min-heap on pos_), which is exactly the
  // order triangularity demands — fill from eliminating against row c only
  // lands at positions beyond pos_[c].
  heap_.clear();
  for (const UEntry& e : urows_[t]) {
    if (e.gen != colgen_[e.other]) continue;
    if (!inrow_[e.other]) {
      inrow_[e.other] = 1;
      rowval_[e.other] = e.value;
      heap_.emplace_back(pos_[e.other], e.other);
      std::push_heap(heap_.begin(), heap_.end(),
                     std::greater<std::pair<std::size_t, std::size_t>>{});
    } else {
      rowval_[e.other] += e.value;
    }
  }
  // Row t and (old) column t are dead from here on; bumping the stamps
  // before eliminating keeps their stale entries out of the fill walk.
  ++rowgen_[t];
  ++colgen_[t];

  double newdiag = spike_[lrow_[t]];
  double spike_max = 0.0;
  RowEta eta;
  eta.target = t;
  const auto cmp = std::greater<std::pair<std::size_t, std::size_t>>{};
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), cmp);
    const std::size_t c = heap_.back().second;
    heap_.pop_back();
    const double val = rowval_[c];
    rowval_[c] = 0.0;
    inrow_[c] = 0;
    if (val == 0.0) continue;
    const double mult = val / diag_[c];
    eta.terms.push_back({c, mult});
    // Row c's entry in the incoming spike column cancels into the diagonal.
    newdiag -= mult * spike_[lrow_[c]];
    for (const UEntry& e : urows_[c]) {
      if (e.gen != colgen_[e.other]) continue;
      if (!inrow_[e.other]) {
        inrow_[e.other] = 1;
        rowval_[e.other] = -mult * e.value;
        heap_.emplace_back(pos_[e.other], e.other);
        std::push_heap(heap_.begin(), heap_.end(), cmp);
      } else {
        rowval_[e.other] -= mult * e.value;
      }
    }
  }

  for (std::size_t s = 0; s < n_; ++s)
    spike_max = std::max(spike_max, std::fabs(spike_[lrow_[s]]));
  if (!std::isfinite(newdiag) ||
      std::fabs(newdiag) <= 1e-10 * std::max(1.0, spike_max)) {
    return UpdateResult::Unstable;  // factorization now invalid
  }

  // Commit: new diagonal, spike column, cyclic permutation of t to the end.
  // The elimination left row t with only its diagonal, and the old column t
  // is fully replaced; drop both stored lists (their entries in OTHER
  // rows/columns die by the generation bumps, but the lists owned by t
  // itself carry stamps of the surviving partners and must go explicitly,
  // or a later re-update of this step would seed from ghost entries).
  diag_[t] = newdiag;
  urows_[t].clear();
  ucols_[t].clear();
  std::size_t added = 0;
  for (std::size_t s = 0; s < n_; ++s) {
    if (s == t) continue;
    const double v = spike_[lrow_[s]];
    if (v == 0.0) continue;
    ucols_[t].push_back({s, v, rowgen_[s]});
    urows_[s].push_back({t, v, colgen_[t]});
    ++added;
  }
  const std::size_t old_pos = pos_[t];
  seq_.erase(seq_.begin() + static_cast<std::ptrdiff_t>(old_pos));
  seq_.push_back(t);
  for (std::size_t i = old_pos; i < n_; ++i) pos_[seq_[i]] = i;

  update_fill_ += added + eta.terms.size();
  if (!eta.terms.empty()) retas_.push_back(std::move(eta));
  ++updates_;
  return UpdateResult::Ok;
}

Vector lstsq(const Matrix& a, std::span<const double> b) {
  return QR(a).solve(b);
}

}  // namespace hslb::linalg

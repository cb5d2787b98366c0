#include "linalg/decomp.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

namespace hslb::linalg {

void QR::factor(const Matrix& a) {
  HSLB_EXPECTS(a.rows() >= a.cols() && a.cols() >= 1);
  rows_ = a.rows();
  cols_ = a.cols();
  qr_.resize(rows_ * cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const auto row = a.row(i);
    for (std::size_t j = 0; j < cols_; ++j) qr_[j * rows_ + i] = row[j];
  }
  tau_.assign(cols_, 0.0);
  for (std::size_t k = 0; k < cols_; ++k) {
    double* const v = &qr_[k * rows_];
    // Householder vector for column k over rows k..rows-1.
    double norm = 0.0;
    for (std::size_t i = k; i < rows_; ++i) norm += v[i] * v[i];
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    const double alpha = v[k] >= 0 ? -norm : norm;
    const double v0 = v[k] - alpha;
    // Normalize so that the implicit v has v[k] = 1.
    for (std::size_t i = k + 1; i < rows_; ++i) v[i] /= v0;
    tau_[k] = -v0 / alpha;  // = 2 / (v^T v) with v[k]=1 normalization
    v[k] = alpha;           // R diagonal
    // Apply H = I - tau v v^T to remaining columns.
    for (std::size_t j = k + 1; j < cols_; ++j) {
      double* const col = &qr_[j * rows_];
      double s = col[k];
      for (std::size_t i = k + 1; i < rows_; ++i) s += v[i] * col[i];
      s *= tau_[k];
      col[k] -= s;
      for (std::size_t i = k + 1; i < rows_; ++i) col[i] -= s * v[i];
    }
  }
}

double QR::min_abs_diag_r() const {
  HSLB_EXPECTS(cols_ >= 1);
  double m = std::fabs(qr_[0]);
  for (std::size_t k = 1; k < cols_; ++k)
    m = std::min(m, std::fabs(qr_[k * rows_ + k]));
  return m;
}

void QR::solve(std::span<double> b, std::span<double> x) const {
  HSLB_EXPECTS(b.size() == rows_ && x.size() == cols_);
  HSLB_EXPECTS(min_abs_diag_r() > 1e-13 * (1.0 + std::fabs(qr_[0])));
  // Apply Q^T: product of Householder reflections in order.
  for (std::size_t k = 0; k < cols_; ++k) {
    if (tau_[k] == 0.0) continue;
    const double* const v = &qr_[k * rows_];
    double s = b[k];
    for (std::size_t i = k + 1; i < rows_; ++i) s += v[i] * b[i];
    s *= tau_[k];
    b[k] -= s;
    for (std::size_t i = k + 1; i < rows_; ++i) b[i] -= s * v[i];
  }
  // Back-substitute R x = b[0..cols).
  for (std::size_t kk = cols_; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    double r = b[k];
    for (std::size_t j = k + 1; j < cols_; ++j) r -= qr_[j * rows_ + k] * x[j];
    x[k] = r / qr_[k * rows_ + k];
  }
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

bool UpdatableLU::refactor(std::span<const std::vector<SparseEntry>> cols,
                           double threshold) {
  const std::size_t n = cols.size();
  n_ = 0;  // no usable factors until this call succeeds
  base_fill_ = update_fill_ = updates_ = 0;
  spike_valid_ = false;
  lrow_.resize(n);
  col_of_step_.resize(n);
  diag_.resize(n);
  lstart_.assign(1, 0);
  lent_.clear();
  reta_target_.clear();
  reta_start_.assign(1, 0);
  reta_terms_.clear();
  // Per-column and per-row lists: the outer vectors only grow, so the inner
  // ones keep their capacity from one basis to the next.
  if (work_.size() < n) {
    work_.resize(n);
    rowocc_.resize(n);
    ucol_by_col_.resize(n);
    urows_.resize(n);
    ucols_.resize(n);
  }
  for (std::size_t j = 0; j < n; ++j) {
    work_[j].clear();
    rowocc_[j].clear();
    ucol_by_col_[j].clear();
    urows_[j].clear();
    ucols_[j].clear();
  }
  rowcount_.assign(n, 0);
  col_done_.assign(n, 0);
  singletons_.clear();
  scatter_.resize(n);

  // Working copy of the active submatrix, column-wise. rowocc_[r] lists the
  // columns that may still hold an entry in row r (lazily cleaned: entries
  // killed by cancellation are skipped at use time).
  double scale = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (const auto& [r, v] : cols[j]) {
      HSLB_EXPECTS(r < n);
      if (v == 0.0) continue;
      work_[j].push_back({r, v});
      rowocc_[r].push_back(j);
      ++rowcount_[r];
      scale = std::max(scale, std::fabs(v));
    }
  }
  const double abs_tol = std::max(1e-12, 1e-11 * scale);

  // Singleton columns pivot at zero Markowitz cost and produce no fill, so
  // they never need the full pivot scan. Simplex bases are dominated by
  // slack/selector singletons, and every elimination step can shrink more
  // columns to size one, so this stack handles almost every step; entries
  // are validated lazily at pop time (a column may have grown stale).
  for (std::size_t j = 0; j < n; ++j)
    if (work_[j].size() == 1) singletons_.push_back(j);

  // The U fill is indexed by destination column while eliminating, so the
  // column-wise view (needed for the zero-skipping backward solve)
  // assembles as we pivot.
  std::size_t ufill = 0;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t best_r = 0, best_c = 0;
    double best_v = 0.0;
    bool found = false;
    // Fast path: any singleton column whose entry clears the absolute
    // floor is an optimal (cost-0, fill-free) Markowitz pivot.
    while (!singletons_.empty() && !found) {
      const std::size_t j = singletons_.back();
      singletons_.pop_back();
      if (col_done_[j] || work_[j].size() != 1) continue;  // stale entry
      if (std::fabs(work_[j][0].value) < abs_tol) continue;  // leave to scan
      found = true;
      best_c = j;
      best_r = work_[j][0].index;
      best_v = work_[j][0].value;
    }
    // General Markowitz search: minimize (rowcount-1)(colcount-1) over the
    // entries passing both the relative column threshold and the absolute
    // singularity floor. Deterministic tie-break: larger magnitude, then
    // first seen (columns ascending, entries in storage order); a cost-0
    // pivot cannot be improved on, so the scan stops there.
    if (!found) {
      std::size_t best_cost = 0;
      for (std::size_t j = 0; j < n && (!found || best_cost > 0); ++j) {
        if (col_done_[j] || work_[j].empty()) continue;
        double colmax = 0.0;
        for (const auto& e : work_[j])
          colmax = std::max(colmax, std::fabs(e.value));
        const double accept = std::max(abs_tol, threshold * colmax);
        const std::size_t ccost = work_[j].size() - 1;
        for (const auto& [r, v] : work_[j]) {
          if (std::fabs(v) < accept) continue;
          const std::size_t cost = (rowcount_[r] - 1) * ccost;
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
    if (!found) return false;  // singular to working precision

    lrow_[k] = best_r;
    col_of_step_[k] = best_c;
    diag_[k] = best_v;
    col_done_[best_c] = 1;

    // Multipliers from the pivot column's remaining active entries: L
    // column k.
    for (const auto& [r, v] : work_[best_c]) {
      if (r == best_r) continue;
      lent_.push_back({r, v / best_v});
      --rowcount_[r];
    }
    lstart_.push_back(lent_.size());
    const std::span<const SparseEntry> mults(lent_.data() + lstart_[k],
                                             lstart_[k + 1] - lstart_[k]);
    --rowcount_[best_r];
    work_[best_c].clear();

    if (mults.empty()) {
      // Fill-free elimination: dropping the pivot row from a column is a
      // plain erase; no scatter pass and no occupancy updates needed.
      for (const std::size_t j : rowocc_[best_r]) {
        if (col_done_[j]) continue;
        std::vector<SparseEntry>& wj = work_[j];
        for (std::size_t t = 0; t < wj.size(); ++t) {
          if (wj[t].index != best_r) continue;
          ucol_by_col_[j].push_back({k, wj[t].value});
          ++ufill;
          wj.erase(wj.begin() + static_cast<std::ptrdiff_t>(t));
          if (wj.size() == 1) singletons_.push_back(j);
          break;
        }
      }
      rowocc_[best_r].clear();
      continue;
    }

    // Eliminate the pivot row from every column still holding it.
    for (const std::size_t j : rowocc_[best_r]) {
      if (col_done_[j]) continue;
      double u = 0.0;
      bool present = false;
      for (const auto& [r, v] : work_[j]) {
        if (r == best_r) {
          u = v;
          present = true;
          break;
        }
      }
      if (!present) continue;  // stale occupancy entry (cancelled earlier)
      ucol_by_col_[j].push_back({k, u});
      ++ufill;

      // column j := column j - (u / pivot) * pivot column, active rows only.
      // Existing rows scatter first, so pattern positions >= old_count are
      // fill-in that needs occupancy/count bookkeeping.
      scatter_.clear();
      for (const auto& [r, v] : work_[j]) {
        if (r != best_r) scatter_.add(r, v);
      }
      const std::size_t old_count = scatter_.pattern().size();
      for (const auto& [i, m] : mults) scatter_.add(i, -m * u);
      std::vector<SparseEntry>& out = work_[j];
      out.clear();
      for (std::size_t t = 0; t < scatter_.pattern().size(); ++t) {
        const std::size_t r = scatter_.pattern()[t];
        const double v = scatter_[r];
        const bool is_fill = t >= old_count;
        if (v == 0.0) {
          if (!is_fill) --rowcount_[r];  // cancellation killed an entry
          continue;
        }
        if (is_fill) {
          ++rowcount_[r];
          rowocc_[r].push_back(j);
        }
        out.push_back({r, v});
      }
      if (out.size() == 1) singletons_.push_back(j);
    }
    // Row best_r is resolved; its occupancy list is dead weight now.
    rowocc_[best_r].clear();
  }

  // U in step space: column k's entries (earlier step l, u_lk), mirrored
  // into the row-wise view so row-spike elimination can walk row contents.
  for (std::size_t k = 0; k < n; ++k) {
    for (const auto& [l, u] : ucol_by_col_[col_of_step_[k]]) {
      ucols_[k].push_back({l, u, 0});
      urows_[l].push_back({k, u, 0});
    }
  }
  base_fill_ = n + lent_.size() + ufill;
  rowgen_.assign(n, 0);
  colgen_.assign(n, 0);
  seq_.resize(n);
  pos_.resize(n);
  step_of_col_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    seq_[k] = k;
    pos_[k] = k;
    step_of_col_[col_of_step_[k]] = k;
  }
  spike_.assign(n, 0.0);
  rowval_.assign(n, 0.0);
  inrow_.assign(n, 0);
  n_ = n;
  return true;
}

void UpdatableLU::apply_l_and_r(std::span<double> b) const {
  // Zero pivot-row values skip their L column: the hypersparsity fast path.
  for (std::size_t k = 0; k < n_; ++k) {
    const double t = b[lrow_[k]];
    if (t == 0.0) continue;
    for (std::size_t i = lstart_[k]; i < lstart_[k + 1]; ++i)
      b[lent_[i].index] -= lent_[i].value * t;
  }
  for (std::size_t e = 0; e < reta_target_.size(); ++e) {
    double acc = 0.0;
    for (std::size_t i = reta_start_[e]; i < reta_start_[e + 1]; ++i)
      acc += reta_terms_[i].value * b[lrow_[reta_terms_[i].index]];
    if (acc != 0.0) b[lrow_[reta_target_[e]]] -= acc;
  }
}

void UpdatableLU::backward_u(std::span<double> b, std::span<double> x) const {
  for (std::size_t kk = n_; kk > 0; --kk) {
    const std::size_t s = seq_[kk - 1];
    const double xv = b[lrow_[s]] / diag_[s];
    x[col_of_step_[s]] = xv;
    if (xv == 0.0) continue;
    for (const UEntry& e : ucols_[s]) {
      if (e.gen == rowgen_[e.other]) b[lrow_[e.other]] -= e.value * xv;
    }
  }
}

void UpdatableLU::solve(std::span<double> b, std::span<double> x) const {
  HSLB_EXPECTS(b.size() == n_ && x.size() == n_);
  apply_l_and_r(b);
  backward_u(b, x);
}

void UpdatableLU::solve_entering(std::span<double> b, std::span<double> x) {
  HSLB_EXPECTS(b.size() == n_ && x.size() == n_);
  apply_l_and_r(b);
  spike_.assign(b.begin(), b.end());  // post-L, post-R: the FT spike
  spike_valid_ = true;
  backward_u(b, x);
}

void UpdatableLU::solve_transpose(std::span<double> b,
                                  std::span<double> w) const {
  HSLB_EXPECTS(b.size() == n_ && w.size() == n_);
  // U^T z = b along the elimination order, ascending. z is in step space;
  // z[s] overwrites b at step s's basis position, which U's triangularity
  // keeps every later step from reading.
  for (std::size_t kk = 0; kk < n_; ++kk) {
    const std::size_t s = seq_[kk];
    const double zk = b[col_of_step_[s]] / diag_[s];
    b[col_of_step_[s]] = zk;
    if (zk == 0.0) continue;
    for (const UEntry& e : urows_[s]) {
      if (e.gen == colgen_[e.other]) b[col_of_step_[e.other]] -= e.value * zk;
    }
  }
  // R^T: each eta (I - e_t m^T) transposes to z[s] -= m_s z[t], reverse order.
  for (std::size_t e = reta_target_.size(); e > 0; --e) {
    const double zt = b[col_of_step_[reta_target_[e - 1]]];
    if (zt == 0.0) continue;
    for (std::size_t i = reta_start_[e - 1]; i < reta_start_[e]; ++i)
      b[col_of_step_[reta_terms_[i].index]] -= reta_terms_[i].value * zt;
  }
  // L^T w = z, descending creation order, gather form.
  for (std::size_t kk = n_; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    double v = b[col_of_step_[k]];
    for (std::size_t i = lstart_[k]; i < lstart_[k + 1]; ++i)
      v -= lent_[i].value * w[lent_[i].index];
    w[lrow_[k]] = v;
  }
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
  const std::size_t eta_begin = reta_terms_.size();
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
    reta_terms_.push_back({c, mult});
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
    reta_terms_.resize(eta_begin);
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

  const std::size_t eta_terms = reta_terms_.size() - eta_begin;
  update_fill_ += added + eta_terms;
  if (eta_terms != 0) {
    reta_target_.push_back(t);
    reta_start_.push_back(reta_terms_.size());
  }
  ++updates_;
  return UpdateResult::Ok;
}

}  // namespace hslb::linalg

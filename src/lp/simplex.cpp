#include "lp/simplex.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <utility>

#include "common/contracts.hpp"
#include "common/log.hpp"
#include "linalg/decomp.hpp"
#include "linalg/sparse.hpp"
#include "lp/presolve.hpp"

namespace hslb::lp {

std::string to_string(Status s) {
  switch (s) {
    case Status::Optimal: return "optimal";
    case Status::Infeasible: return "infeasible";
    case Status::Unbounded: return "unbounded";
    case Status::IterationLimit: return "iteration-limit";
  }
  return "?";
}

/// Internal computational form:
///   rows:        sum_j a_rj x_j - s_r + sigma_r * art_r = 0
///   structurals: model bounds;  slacks: row bounds;  artificials: [0, inf).
///
/// Structural columns live in a CSC copy (scaled by the row equilibration)
/// with a CSR companion for the dual-repair row traversals; slack and
/// artificial columns are implicit singletons and never stored. Every array
/// is kept from one reset() to the next, so the engine reuses its storage
/// across solves.
class Tableau {
 public:
  /// Loads a model: scales it into the CSC/CSR copy and resets every
  /// per-solve state to what a fresh tableau starts from.
  void reset(const Model& model, const Options& opt) {
    model_ = &model;
    opt_ = &opt;
    n_ = model.num_cols();
    m_ = model.num_rows();
    const std::size_t total = n_ + 2 * m_;
    lb_.assign(total, 0.0);
    ub_.assign(total, 0.0);
    cost_.assign(total, 0.0);
    status_.assign(total, BasisStatus::Basic);
    value_.assign(total, 0.0);
    alpha_scatter_.resize(total);
    duals_.clear();
    cand_.clear();
    stats_ = SolveStats{};
    factored_ = false;
    singular_failure_ = false;
    warm_trouble_ = false;

    for (std::size_t j = 0; j < n_; ++j) {
      lb_[j] = model.col_lower(j);
      ub_[j] = model.col_upper(j);
    }
    // Row equilibration: outer-approximation cuts carry coefficients many
    // orders of magnitude above the +-1 structural rows; dividing each row
    // by its largest coefficient keeps the basis numerically sane.
    row_scale_.assign(m_, 1.0);
    for (std::size_t r = 0; r < m_; ++r) {
      double s = 0.0;
      for (const auto& [col, v] : model.row(r)) s = std::max(s, std::fabs(v));
      row_scale_[r] = s > 0.0 ? s : 1.0;
    }
    // Scaled structural columns straight from the model's column view
    // (entries that scale to exactly zero are dropped), then the row-wise
    // companion by a counting sort, so each row lists increasing columns.
    acol_start_.assign(1, 0);
    acol_.clear();
    for (std::size_t j = 0; j < n_; ++j) {
      for (const auto& [r, v] : model.col(j)) {
        const double scaled = v / row_scale_[r];
        if (scaled != 0.0) acol_.push_back({r, scaled});
      }
      acol_start_.push_back(acol_.size());
    }
    arow_start_.assign(m_ + 1, 0);
    for (const auto& e : acol_) ++arow_start_[e.index + 1];
    for (std::size_t r = 0; r < m_; ++r) arow_start_[r + 1] += arow_start_[r];
    arow_.resize(acol_.size());
    arow_next_.assign(arow_start_.begin(), arow_start_.end() - 1);
    for (std::size_t j = 0; j < n_; ++j) {
      for (const auto& e : acol(j)) arow_[arow_next_[e.index]++] = {j, e.value};
    }
    art_sign_.assign(m_, 1.0);
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t s = slack(r);
      lb_[s] = model.row_lower(r) == -kInf ? -kInf
                                           : model.row_lower(r) / row_scale_[r];
      ub_[s] = model.row_upper(r) == kInf ? kInf
                                          : model.row_upper(r) / row_scale_[r];
    }
    basis_.assign(m_, 0);
  }

  /// Cold start: every structural at its bound nearest zero (or 0 if free);
  /// slacks clamped to the implied activity; artificials absorb the residual
  /// so the initial basis is the (diagonal) artificial basis.
  void init_cold() {
    for (std::size_t j = 0; j < n_; ++j) {
      set_nonbasic_start(j);
    }
    std::vector<double>& activity = rhs_;  // free until the first factor
    activity.assign(m_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      if (value_[j] == 0.0) continue;
      linalg::axpy_scatter(value_[j], acol(j), activity);
    }
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t s = slack(r);
      const std::size_t a = artificial(r);
      lb_[a] = 0.0;
      ub_[a] = kInf;
      if (activity[r] >= lb_[s] && activity[r] <= ub_[s]) {
        // Row already satisfied: the slack itself is basic at the activity;
        // the artificial stays nonbasic at zero.
        value_[s] = activity[r];
        status_[s] = BasisStatus::Basic;
        basis_[r] = s;
        art_sign_[r] = 1.0;
        value_[a] = 0.0;
        status_[a] = BasisStatus::AtLower;
      } else {
        // Row violated: park the slack at its nearest bound and let a basic
        // artificial absorb the (positive, via sigma) residual.
        value_[s] = std::clamp(activity[r], lb_[s], ub_[s]);
        status_[s] =
            value_[s] == lb_[s] ? BasisStatus::AtLower : BasisStatus::AtUpper;
        // Row reads: activity - s + sigma*a = 0, so a = -resid/sigma; choose
        // sigma = -sign(resid) to start the artificial at |resid| >= 0.
        const double resid = activity[r] - value_[s];
        art_sign_[r] = resid >= 0.0 ? -1.0 : 1.0;
        status_[a] = BasisStatus::Basic;
        basis_[r] = a;
      }
    }
  }

  /// Warm start from a prior optimal basis. The snapshot must cover exactly
  /// our structural columns and a prefix of our rows (appended rows start
  /// with their slack basic). Returns false — leaving the caller to cold
  /// start — when structurally incompatible or numerically singular.
  bool init_warm(const Basis& b) {
    if (b.cols.size() != n_ || b.rows.size() > m_) return false;
    basics_.clear();
    for (std::size_t j = 0; j < n_; ++j) apply_status(j, b.cols[j], basics_);
    for (std::size_t r = 0; r < m_; ++r) {
      const BasisStatus st =
          r < b.rows.size() ? b.rows[r] : BasisStatus::Basic;
      apply_status(slack(r), st, basics_);
    }
    // Artificials play no part in a warm solve: pinned nonbasic at zero.
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t a = artificial(r);
      art_sign_[r] = 1.0;
      lb_[a] = 0.0;
      ub_[a] = 0.0;
      value_[a] = 0.0;
      status_[a] = BasisStatus::AtLower;
    }
    if (basics_.size() != m_) return false;
    for (std::size_t i = 0; i < m_; ++i) basis_[i] = basics_[i];
    return refactorize();
  }

  bool singular_failure() const { return singular_failure_; }
  bool warm_trouble() const { return warm_trouble_; }

  /// Two-phase cold solve.
  Solution run_cold() {
    Solution sol = run_cold_impl();
    sol.stats = stats_;
    return sol;
  }

  /// Warm solve: dual-simplex repair of the primal infeasibilities the bound
  /// changes / appended rows introduced, then a primal cleanup phase.
  /// Assumes init_warm succeeded.
  Solution run_warm() {
    Solution sol = run_warm_impl();
    sol.stats = stats_;
    return sol;
  }

 private:
  std::size_t slack(std::size_t r) const { return n_ + r; }
  std::size_t artificial(std::size_t r) const { return n_ + m_ + r; }
  std::size_t total_cols() const { return n_ + 2 * m_; }

  /// Scaled structural column j (rows ascending) and row r (columns
  /// ascending) of the CSC/CSR copy.
  std::span<const linalg::SparseEntry> acol(std::size_t j) const {
    return {acol_.data() + acol_start_[j], acol_start_[j + 1] - acol_start_[j]};
  }
  std::span<const linalg::SparseEntry> arow(std::size_t r) const {
    return {arow_.data() + arow_start_[r], arow_start_[r + 1] - arow_start_[r]};
  }

  /// Applies f(row, value) over the nonzeros of tableau column j: structural
  /// columns from the CSC view, slacks/artificials as implicit singletons.
  template <typename F>
  void for_col(std::size_t j, F&& f) const {
    if (j < n_) {
      for (const auto& [r, v] : acol(j)) f(r, v);
    } else if (j < n_ + m_) {
      f(j - n_, -1.0);
    } else {
      f(j - n_ - m_, art_sign_[j - n_ - m_]);
    }
  }

  // Phase-1 acceptance threshold. Rows are equilibrated to O(1)
  // coefficients, so residual artificial mass is measured against the
  // scaled row bounds — NOT against variable magnitudes: a leftover of
  // feasibility_tol * max|x| would silently accept genuinely infeasible
  // systems whenever some variable is large (observed with pinned-integer
  // NLP subproblems whose T_sync row cannot be met).
  double infeas_tol() const {
    double bound_scale = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t s = slack(r);
      if (lb_[s] != -kInf) bound_scale = std::max(bound_scale, std::fabs(lb_[s]));
      if (ub_[s] != kInf) bound_scale = std::max(bound_scale, std::fabs(ub_[s]));
    }
    return opt_->feasibility_tol * (1.0 + bound_scale);
  }

  void set_nonbasic_start(std::size_t j) {
    if (lb_[j] == -kInf && ub_[j] == kInf) {
      status_[j] = BasisStatus::Free;
      value_[j] = 0.0;
    } else if (lb_[j] == -kInf) {
      status_[j] = BasisStatus::AtUpper;
      value_[j] = ub_[j];
    } else if (ub_[j] == kInf) {
      status_[j] = BasisStatus::AtLower;
      value_[j] = lb_[j];
    } else {
      // Both bounds finite: start at the one with smaller magnitude.
      const bool lower = std::fabs(lb_[j]) <= std::fabs(ub_[j]);
      status_[j] = lower ? BasisStatus::AtLower : BasisStatus::AtUpper;
      value_[j] = lower ? lb_[j] : ub_[j];
    }
  }

  /// Applies one snapshot status to variable j; nonbasic statuses that no
  /// longer match the (possibly tightened) bounds degrade gracefully to the
  /// cold nonbasic start for that variable.
  void apply_status(std::size_t j, BasisStatus st,
                    std::vector<std::size_t>& basics) {
    switch (st) {
      case BasisStatus::Basic:
        status_[j] = BasisStatus::Basic;
        basics.push_back(j);  // value filled in by refactorize()
        return;
      case BasisStatus::AtLower:
        if (lb_[j] == -kInf) break;
        status_[j] = BasisStatus::AtLower;
        value_[j] = lb_[j];
        return;
      case BasisStatus::AtUpper:
        if (ub_[j] == kInf) break;
        status_[j] = BasisStatus::AtUpper;
        value_[j] = ub_[j];
        return;
      case BasisStatus::Free:
        if (lb_[j] == -kInf && ub_[j] == kInf) {
          status_[j] = BasisStatus::Free;
          value_[j] = 0.0;
          return;
        }
        break;
    }
    set_nonbasic_start(j);
  }

  double phase1_objective() const {
    double s = 0.0;
    for (std::size_t r = 0; r < m_; ++r) s += value_[artificial(r)];
    return s;
  }

  Solution run_cold_impl() {
    Solution sol;

    // Phase 1: minimize the sum of artificials.
    for (std::size_t r = 0; r < m_; ++r) cost_[artificial(r)] = 1.0;
    if (!refactorize()) {
      singular_failure_ = true;
      sol.status = Status::Infeasible;
      return sol;
    }
    const auto p1 = primal(/*phase2=*/false, sol.iterations);
    if (p1 == Status::IterationLimit) {
      sol.status = Status::IterationLimit;
      return sol;
    }
    if (singular_failure_) {
      sol.status = Status::Infeasible;
      return sol;
    }
    polish();  // update drift could otherwise mis-measure the phase-1 residual
    if (phase1_objective() > infeas_tol()) {
      sol.status = Status::Infeasible;
      return sol;
    }

    // Phase 2: real costs; artificials pinned to zero.
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t a = artificial(r);
      cost_[a] = 0.0;
      ub_[a] = 0.0;
      if (status_[a] != BasisStatus::Basic) status_[a] = BasisStatus::AtLower;
    }
    for (std::size_t j = 0; j < n_; ++j) cost_[j] = model_->objective(j);
    const auto p2 = primal(/*phase2=*/true, sol.iterations);
    finalize(sol, p2);
    return sol;
  }

  Solution run_warm_impl() {
    Solution sol;
    sol.warm_started = true;
    for (std::size_t j = 0; j < n_; ++j) cost_[j] = model_->objective(j);

    const auto repaired = dual_repair(sol.iterations);
    // A singular rebuild also stops the repair with Infeasible, so the flag
    // is read first: that stop proves nothing about the model.
    if (repaired == Status::Infeasible && !singular_failure_) {
      sol.status = Status::Infeasible;
      return sol;
    }
    if (repaired != Status::Optimal || singular_failure_) {
      // Iteration trouble or a singular update: abandon the warm path; the
      // caller falls back to a cold solve.
      warm_trouble_ = true;
      sol.status = Status::IterationLimit;
      return sol;
    }
    const auto p2 = primal(/*phase2=*/true, sol.iterations);
    if (p2 == Status::IterationLimit || singular_failure_) {
      warm_trouble_ = true;
      sol.status = Status::IterationLimit;
      return sol;
    }
    // The warm ladder went dual repair -> primal phase 2 and held: one node
    // re-solve that never ran primal phase 1 (abandoned attempts never
    // reach this point, and their stats are discarded by the caller).
    if (p2 == Status::Optimal) ++stats_.dual_phase1_avoided;
    finalize(sol, p2);
    return sol;
  }

  // -- Basis-inverse maintenance --------------------------------------------

  /// True when the factorization carries Forrest-Tomlin updates, i.e.
  /// solves are no longer against fresh factors.
  bool stale_factor() const { return factored_ && lu().updates() > 0; }

  /// The factors every solve runs against; lu_[1 - active_] is the spare a
  /// refactorization builds into while these are in use.
  linalg::UpdatableLU& lu() { return lu_[active_]; }
  const linalg::UpdatableLU& lu() const { return lu_[active_]; }

  /// Rebuilds the Markowitz sparse LU of the current basis, drops the
  /// accumulated FT updates, and recomputes basic values
  /// x_B = B^{-1} (-N x_N) exactly. Returns false (leaving the previous
  /// factorization and values untouched) if the basis is numerically
  /// singular: with factors in use the spare buffer is factored and only
  /// swapped in on success; the first factorization of a solve has nothing
  /// to keep and reuses the active buffer.
  bool refactorize() {
    if (m_ == 0) return true;
    std::size_t bnnz = 0;
    if (bcols_.size() < m_) bcols_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      bcols_[i].clear();
      for_col(basis_[i], [&](std::size_t r, double v) {
        bcols_[i].push_back({r, v});
      });
      bnnz += bcols_[i].size();
    }
    const std::size_t target = factored_ ? 1 - active_ : active_;
    if (!lu_[target].refactor(std::span(bcols_).first(m_))) return false;
    active_ = target;
    factored_ = true;
    stats_.lu_fill = lu().nnz();
    ++stats_.refactorizations;
    stats_.basis_nnz = bnnz;

    rhs_.assign(m_, 0.0);
    for (std::size_t j = 0; j < total_cols(); ++j) {
      if (status_[j] == BasisStatus::Basic || value_[j] == 0.0) continue;
      const double xj = value_[j];
      for_col(j, [&](std::size_t r, double v) { rhs_[r] -= v * xj; });
    }
    xb_.resize(m_);
    lu().solve(rhs_, xb_);
    for (std::size_t i = 0; i < m_; ++i) value_[basis_[i]] = xb_[i];
    return true;
  }

  /// Best-effort exact recomputation of basic values (used before reading
  /// values after a run of basis updates); never flags failure.
  void polish() {
    if (stale_factor() || m_ == 0) refactorize();
  }

  /// Bills one triangular solve pair: the updated factors' nonzeros (the
  /// entries it touches, clamped to m^2 because FT fill can transiently
  /// exceed it) against what a dense kernel pays for the same call, m^2
  /// plus m per basis update folded in.
  void bill_kernel() const {
    stats_.kernel_flops += std::min(lu().nnz(), m_ * m_);
    stats_.kernel_dense_flops += m_ * m_ + lu().updates() * m_;
  }

  /// w_ := B^{-1} a_q for the entering column q; the factor also captures
  /// the partially transformed column (the spike) a following
  /// push_update(p) will splice into U.
  void ftran_entering(std::size_t q) {
    rhs_.assign(m_, 0.0);
    for_col(q, [&](std::size_t r, double v) { rhs_[r] = v; });
    w_.resize(m_);
    if (m_ == 0) return;
    bill_kernel();
    lu().solve_entering(rhs_, w_);
  }

  /// out := B^{-T} rhs_ (rhs_ is consumed).
  void btran(std::vector<double>& out) {
    out.resize(m_);
    if (m_ == 0) return;
    bill_kernel();
    lu().solve_transpose(rhs_, out);
  }

  /// rho_ := B^{-T} e_p, row p of the basis inverse.
  void btran_unit(std::size_t p) {
    rhs_.assign(m_, 0.0);
    rhs_[p] = 1.0;
    btran(rho_);
  }

  /// Records the pivot in row p as a Forrest-Tomlin column replacement, with
  /// adaptive refactorization on fill growth or an unstable update and the
  /// interval as backstop. Returns false on a singular rebuild, which
  /// fresh_factor() flags so the caller falls back (warm -> cold,
  /// cold -> Bland's rule).
  bool push_update(std::size_t p) {
    ++stats_.pivots;
    const std::size_t fill_before = lu().update_fill();
    if (lu().update(p) == linalg::UpdatableLU::UpdateResult::Ok) {
      ++stats_.ft_updates;
      stats_.ft_fill_nnz += lu().update_fill() - fill_before;
      if (lu().nnz() >
          static_cast<double>(lu().base_fill()) * opt_->refactor_fill_ratio) {
        ++stats_.refactor_fill_hits;
        return fresh_factor();
      }
      if (lu().updates() >= opt_->refactor_interval) {
        ++stats_.refactor_interval_hits;
        return fresh_factor();
      }
      return true;
    }
    // The replacement left a negligible diagonal: the updated factors are
    // unusable, so rebuild from the (already pivoted) basis.
    ++stats_.refactor_drift_hits;
    return fresh_factor();
  }

  void compute_duals() {
    if (m_ == 0) {
      duals_.clear();
      return;
    }
    rhs_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) rhs_[i] = cost_[basis_[i]];
    btran(duals_);
  }

  double reduced_cost(std::size_t j) const {
    double d = cost_[j];
    for_col(j, [&](std::size_t r, double v) { d -= duals_[r] * v; });
    return d;
  }

  // -- Pricing ---------------------------------------------------------------

  /// Favorable movement direction for nonbasic j with reduced cost d
  /// (+1 increase, -1 decrease, 0 none).
  int favorable(std::size_t j, double d) const {
    if ((status_[j] == BasisStatus::AtLower ||
         status_[j] == BasisStatus::Free) &&
        d < -opt_->optimality_tol)
      return +1;
    if ((status_[j] == BasisStatus::AtUpper ||
         status_[j] == BasisStatus::Free) &&
        d > opt_->optimality_tol)
      return -1;
    return 0;
  }

  /// Candidate-list partial pricing under a Devex reference framework.
  ///
  /// Below this column count a full pricing sweep is cheaper than the
  /// bookkeeping it would save, so every pivot scores every column. This is
  /// a path-quality decision as much as a speed one: the OA master LPs the
  /// B&B solves are massively degenerate, and their downstream cuts and
  /// branching choices key off which alternative-optimum vertex the simplex
  /// settles on. Entering columns chosen from a restricted candidate list
  /// walk the basis to erratic vertices and were measured to inflate the
  /// FMO T32 search from ~400 nodes to tens of thousands; a global argmax
  /// under consistently maintained weights keeps the tree small. The large
  /// selector LPs (tens of thousands of columns, shallow trees) are where
  /// per-pivot sweeps actually dominate runtime, and only they take the
  /// candidate-list path.
  static constexpr std::size_t kPartialPricingMinCols = 4096;

  /// Candidate-list partial pricing under a Devex reference framework.
  ///
  /// Small LPs (see kPartialPricingMinCols) score every column each pivot;
  /// the favorable set doubles as the candidate list so Devex weight
  /// maintenance covers everything the next round scores. Large LPs
  /// re-price only the surviving candidates; when the list runs dry, one
  /// full sweep under a restarted reference frame refills it with the
  /// globally strongest columns (capped so per-pivot work stays
  /// proportional to the list). The entering variable maximizes
  /// d^2 / devex weight. In every mode "no entering column" is only
  /// reported after a fruitless sweep of all columns, so optimality claims
  /// are exactly as strong as a full Dantzig sweep's.
  std::pair<std::optional<std::size_t>, int> price_devex() {
    std::optional<std::size_t> best;
    int best_dir = 0;
    double best_score = 0.0;
    auto consider = [&](std::size_t j) {
      if (status_[j] == BasisStatus::Basic || lb_[j] == ub_[j]) return 0.0;
      const double d = reduced_cost(j);
      const int dir = favorable(j, d);
      if (dir == 0) return 0.0;
      const double score = d * d / devex_w_[j];
      if (!best || score > best_score) {
        best = j;
        best_dir = dir;
        best_score = score;
      }
      return score;
    };

    const std::size_t total = total_cols();
    if (total <= kPartialPricingMinCols) {
      cand_.clear();
      for (std::size_t j = 0; j < total; ++j) {
        if (consider(j) > 0.0) cand_.push_back(j);
      }
      return {best, best_dir};
    }

    // Re-price the surviving candidates.
    std::vector<std::size_t> alive;
    alive.reserve(cand_.size());
    for (const std::size_t j : cand_) {
      if (consider(j) > 0.0) alive.push_back(j);
    }
    cand_.swap(alive);

    if (cand_.empty()) {
      // Restart the reference framework: weights updated while a column sat
      // on the list are meaningless next to the untouched weight 1.0 of
      // every column priced out of the list, and ranking a full sweep on
      // that mix picks erratic entering columns. A fresh frame scores the
      // sweep by plain d^2 and lets the list carry Devex weights from there.
      devex_w_.assign(total, 1.0);
      best = std::nullopt;
      best_dir = 0;
      best_score = 0.0;
      std::vector<std::pair<double, std::size_t>> scored;
      for (std::size_t j = 0; j < total; ++j) {
        const double score = consider(j);
        if (score > 0.0) scored.emplace_back(score, j);
      }
      const std::size_t keep =
          std::min(scored.size(), std::max<std::size_t>(64, total / 16));
      // Deterministic strongest-first order: score descending, index
      // ascending among exact ties.
      std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                        [](const auto& a, const auto& b) {
                          return a.first != b.first ? a.first > b.first
                                                    : a.second < b.second;
                        });
      cand_.reserve(keep);
      for (std::size_t t = 0; t < keep; ++t) cand_.push_back(scored[t].second);
    }
    return {best, best_dir};
  }

  /// Devex weight maintenance after a basis change in row p with entering
  /// column q and direction w = B^{-1} A_q. Reference-framework updates are
  /// restricted to the current candidate list (the only columns the next
  /// pricing round will score), which keeps the cost of the rho = B^{-T} e_p
  /// solve and the per-candidate dot products proportional to the list size.
  void devex_update(std::size_t p, std::size_t q, std::size_t leave,
                    const std::vector<double>& w) {
    const double apq = w[p];
    const double wq = devex_w_[q];
    if (!cand_.empty()) {
      btran_unit(p);
      const std::vector<double>& rho = rho_;
      for (const std::size_t j : cand_) {
        if (j == q) continue;
        double apj = 0.0;
        for_col(j, [&](std::size_t r, double v) {
          if (rho[r] != 0.0) apj += rho[r] * v;
        });
        const double grown = (apj / apq) * (apj / apq) * wq;
        if (grown > devex_w_[j]) devex_w_[j] = grown;
      }
    }
    devex_w_[leave] = std::max(wq / (apq * apq), 1.0);
    // A runaway reference weight means the frame is stale: restart it.
    if (wq > 1e6) devex_w_.assign(devex_w_.size(), 1.0);
  }

  // -- Primal simplex --------------------------------------------------------

  /// One primal phase. Assumes a valid factorization and current values.
  /// Updates `iterations` cumulatively.
  Status primal(bool phase2, std::size_t& iterations) {
    std::size_t degenerate_run = 0;
    devex_w_.assign(total_cols(), 1.0);
    cand_.clear();
    while (iterations < opt_->max_iterations) {
      compute_duals();

      const bool bland = degenerate_run >= opt_->bland_threshold;
      std::optional<std::size_t> entering;
      int direction = 0;
      if (bland) {
        // Bland's rule: smallest-index favorable column, full scan.
        for (std::size_t j = 0; j < total_cols(); ++j) {
          if (status_[j] == BasisStatus::Basic) continue;
          if (lb_[j] == ub_[j]) continue;  // fixed, cannot move
          const int dir = favorable(j, reduced_cost(j));
          if (dir != 0) {
            entering = j;
            direction = dir;
            break;
          }
        }
      } else {
        std::tie(entering, direction) = price_devex();
      }
      if (!entering) return Status::Optimal;  // phase optimum reached

      const std::size_t q = *entering;

      // Direction of basic variables: delta x_B = -dir * B^{-1} A_q.
      ftran_entering(q);
      const std::vector<double>& w = w_;

      // Ratio test. The pivot tolerance is relative to the direction's
      // scale: accepting a pivot many orders below ||w|| makes the next
      // basis numerically singular.
      double wmax = 0.0;
      for (double wi : w) wmax = std::max(wmax, std::fabs(wi));
      const double kPivTol = 1e-9 * std::max(1.0, wmax);
      double t_own = kInf;  // entering variable's own range
      if (lb_[q] != -kInf && ub_[q] != kInf) t_own = ub_[q] - lb_[q];
      double t_star = t_own;
      std::optional<std::size_t> leaving_pos;
      bool leaving_at_upper = false;
      for (std::size_t i = 0; i < m_; ++i) {
        const double delta = -direction * w[i];
        const std::size_t b = basis_[i];
        double limit = kInf;
        bool at_upper = false;
        if (delta > kPivTol) {
          if (ub_[b] != kInf) {
            limit = (ub_[b] - value_[b]) / delta;
            at_upper = true;
          }
        } else if (delta < -kPivTol) {
          if (lb_[b] != -kInf) {
            limit = (lb_[b] - value_[b]) / delta;
            at_upper = false;
          }
        } else {
          continue;
        }
        limit = std::max(limit, 0.0);  // numerical guard
        if (limit < t_star - 1e-12 ||
            (limit < t_star + 1e-12 && leaving_pos &&
             basis_[i] < basis_[*leaving_pos])) {
          t_star = limit;
          leaving_pos = i;
          leaving_at_upper = at_upper;
        }
      }

      if (t_star == kInf) {
        // No blocking bound anywhere. Phase 1 has a bounded objective, so
        // this can only legitimately happen in phase 2.
        return phase2 ? Status::Unbounded : Status::Infeasible;
      }

      // A pivot far below the direction's scale makes the basis update
      // ill-conditioned; with a stale factorization, rebuild and retry the
      // iteration from exact data before accepting it.
      if (leaving_pos && t_star < t_own - 1e-12 && stale_factor() &&
          std::fabs(w[*leaving_pos]) < 1e-7 * std::max(1.0, wmax)) {
        ++stats_.refactor_drift_hits;
        if (!fresh_factor()) return Status::Infeasible;
        continue;
      }

      ++iterations;
      degenerate_run = t_star <= 1e-10 ? degenerate_run + 1 : 0;

      if (!leaving_pos || t_star >= t_own - 1e-12) {
        // Bound flip: the entering variable runs to its opposite bound.
        HSLB_ASSERT(t_own != kInf);
        const double old = value_[q];
        status_[q] = status_[q] == BasisStatus::AtLower ? BasisStatus::AtUpper
                                                        : BasisStatus::AtLower;
        value_[q] = status_[q] == BasisStatus::AtLower ? lb_[q] : ub_[q];
        const double delta = value_[q] - old;
        for (std::size_t i = 0; i < m_; ++i) {
          if (w[i] != 0.0) value_[basis_[i]] -= w[i] * delta;
        }
        continue;
      }

      // Pivot: entering becomes basic, leaving goes to the bound it hit.
      const std::size_t p = *leaving_pos;
      const std::size_t leave = basis_[p];
      const double delta_q = direction * t_star;
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == p) continue;
        if (w[i] != 0.0) value_[basis_[i]] -= w[i] * delta_q;
      }
      value_[q] = value_[q] + delta_q;
      status_[q] = BasisStatus::Basic;
      status_[leave] =
          leaving_at_upper ? BasisStatus::AtUpper : BasisStatus::AtLower;
      value_[leave] = leaving_at_upper ? ub_[leave] : lb_[leave];
      basis_[p] = q;
      if (!bland) devex_update(p, q, leave, w);
      if (!phase2) ++stats_.phase1_pivots;
      if (!push_update(p)) return Status::Infeasible;
    }
    return Status::IterationLimit;
  }

  // -- Dual simplex ----------------------------------------------------------

  /// Restores primal feasibility of a (near) dual-feasible basis: repeatedly
  /// drives the most-violating basic variable to the bound it violates,
  /// choosing the entering variable by the bounded-variable dual ratio test.
  /// Returns Optimal when primal feasible, Infeasible on a certificate (the
  /// violating row cannot be repaired by any in-bounds move of the
  /// nonbasics), IterationLimit on trouble.
  Status dual_repair(std::size_t& iterations) {
    while (iterations < opt_->max_iterations) {
      std::optional<std::size_t> pos;
      double worst = 0.0;
      bool above = false;
      for (std::size_t i = 0; i < m_; ++i) {
        const std::size_t b = basis_[i];
        const double v = value_[b];
        if (ub_[b] != kInf) {
          const double viol = v - ub_[b];
          if (viol > opt_->feasibility_tol * (1.0 + std::fabs(ub_[b])) &&
              viol > worst) {
            worst = viol;
            pos = i;
            above = true;
          }
        }
        if (lb_[b] != -kInf) {
          const double viol = lb_[b] - v;
          if (viol > opt_->feasibility_tol * (1.0 + std::fabs(lb_[b])) &&
              viol > worst) {
            worst = viol;
            pos = i;
            above = false;
          }
        }
      }
      if (!pos) return Status::Optimal;  // primal feasible

      const std::size_t p = *pos;
      const std::size_t leave = basis_[p];

      // Row p of B^{-1} A for the nonbasic columns, via rho = B^{-T} e_p.
      // rho is hypersparse for a local repair, so the alpha row is built by
      // walking only the CSR rows where rho is nonzero (plus the implicit
      // slack/artificial singletons of those rows) instead of pricing every
      // column of the tableau.
      btran_unit(p);
      const std::vector<double>& rho = rho_;
      compute_duals();

      alpha_scatter_.clear();
      for (std::size_t r = 0; r < m_; ++r) {
        const double rr = rho[r];
        if (rr == 0.0) continue;
        for (const auto& [c, v] : arow(r)) {
          alpha_scatter_.add(c, rr * v);
        }
        alpha_scatter_.add(slack(r), -rr);
        alpha_scatter_.add(artificial(r), art_sign_[r] * rr);
      }
      double alpha_max = 0.0;
      for (const std::size_t j : alpha_scatter_.pattern()) {
        if (status_[j] == BasisStatus::Basic || lb_[j] == ub_[j]) continue;
        alpha_max = std::max(alpha_max, std::fabs(alpha_scatter_[j]));
      }
      const double atol = 1e-9 * std::max(1.0, alpha_max);

      // Dual ratio test: candidates are moves that reduce the violation;
      // among them the smallest reduced-cost ratio keeps dual feasibility.
      // Sign convention: with asign = alpha for an above-upper violation and
      // -alpha below-lower, candidates are at-lower columns with asign > 0,
      // at-upper columns with asign < 0, and free columns either way.
      // Columns outside the scatter pattern have alpha exactly 0 and can
      // never be candidates.
      std::optional<std::size_t> entering;
      double best_ratio = kInf;
      for (const std::size_t j : alpha_scatter_.pattern()) {
        if (status_[j] == BasisStatus::Basic || lb_[j] == ub_[j]) continue;
        const double asign = above ? alpha_scatter_[j] : -alpha_scatter_[j];
        bool candidate = false;
        if (status_[j] == BasisStatus::Free) {
          candidate = std::fabs(asign) > atol;
        } else if (status_[j] == BasisStatus::AtLower) {
          candidate = asign > atol;
        } else {  // AtUpper
          candidate = asign < -atol;
        }
        if (!candidate) continue;
        const double d = reduced_cost(j);
        // Dual feasibility makes d/asign >= 0 (free columns have d ~ 0);
        // the max() guards round-off drift.
        const double ratio = std::max(0.0, std::fabs(d) / std::fabs(asign));
        if (ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 && entering && j < *entering)) {
          best_ratio = ratio;
          entering = j;
        }
      }
      if (!entering) {
        // Certificate: every in-bounds move of the nonbasics increases (or
        // cannot change) the violated row value — the row is infeasible.
        // Valid regardless of dual feasibility: it only reads the signs of
        // row p of B^{-1} A at the current vertex.
        return Status::Infeasible;
      }

      const std::size_t q = *entering;
      ftran_entering(q);
      const std::vector<double>& w = w_;
      double wmax = 0.0;
      for (double wi : w) wmax = std::max(wmax, std::fabs(wi));
      if (std::fabs(w[p]) < 1e-7 * std::max(1.0, wmax)) {
        if (stale_factor()) {
          // The updated factors disagree with the fresh direction: rebuild
          // from exact data and retry this iteration.
          ++stats_.refactor_drift_hits;
          if (!fresh_factor()) return Status::Infeasible;
          continue;
        }
        return Status::IterationLimit;  // genuinely tiny pivot: abandon warm
      }

      const double target = above ? ub_[leave] : lb_[leave];
      const double delta_q = (value_[leave] - target) / w[p];
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == p) continue;
        if (w[i] != 0.0) value_[basis_[i]] -= w[i] * delta_q;
      }
      value_[q] += delta_q;
      status_[q] = BasisStatus::Basic;
      status_[leave] = above ? BasisStatus::AtUpper : BasisStatus::AtLower;
      value_[leave] = target;
      basis_[p] = q;
      ++stats_.dual_pivots;
      if (!push_update(p)) return Status::Infeasible;
      ++iterations;
    }
    return Status::IterationLimit;
  }

  /// Refactorizes from the current basis; flags singular_failure_ on
  /// failure so callers can retry cold / under Bland's rule.
  bool fresh_factor() {
    if (refactorize()) return true;
    log::debug() << "simplex: singular basis (m=" << m_ << ", n=" << n_ << ")";
    singular_failure_ = true;
    return false;
  }

  /// Shared phase-2 epilogue: extracts the solution, polishes values,
  /// snapshots the basis.
  void finalize(Solution& sol, Status p2) {
    if (singular_failure_) {
      sol.status = Status::Infeasible;
      return;
    }
    sol.status = p2;
    if (p2 == Status::Optimal) polish();
    sol.x.assign(value_.begin(), value_.begin() + static_cast<std::ptrdiff_t>(n_));
    compute_duals();
    // Duals of the scaled rows map back by dividing by the row scale.
    sol.duals = duals_;
    for (std::size_t r = 0; r < sol.duals.size(); ++r)
      sol.duals[r] /= row_scale_[r];
    sol.objective = 0.0;
    for (std::size_t j = 0; j < n_; ++j)
      sol.objective += model_->objective(j) * sol.x[j];
    if (p2 == Status::Optimal) {
      double viol = 0.0;
      for (std::size_t r = 0; r < m_; ++r) {
        const double act = model_->row_activity(r, sol.x);
        if (model_->row_lower(r) != -kInf)
          viol = std::max(viol, model_->row_lower(r) - act);
        if (model_->row_upper(r) != kInf)
          viol = std::max(viol, act - model_->row_upper(r));
      }
      // Variable bounds too: a solution inside every row but outside a box
      // is just as infeasible (and is what a buggy warm repair would give).
      for (std::size_t j = 0; j < n_; ++j) {
        if (lb_[j] != -kInf) viol = std::max(viol, lb_[j] - sol.x[j]);
        if (ub_[j] != kInf) viol = std::max(viol, sol.x[j] - ub_[j]);
      }
      sol.max_primal_violation = viol;
      snapshot_basis(sol.basis);
    }
  }

  void snapshot_basis(Basis& out) const {
    out.cols.assign(status_.begin(),
                    status_.begin() + static_cast<std::ptrdiff_t>(n_));
    out.rows.resize(m_);
    for (std::size_t r = 0; r < m_; ++r) out.rows[r] = status_[slack(r)];
    // A degenerate basic artificial (at zero) is recorded as its row's slack
    // being basic: the slack column is the artificial's up to sign, so the
    // recorded basis stays nonsingular and artificial-free.
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= n_ + m_) out.rows[basis_[i] - n_ - m_] = BasisStatus::Basic;
    }
  }

  const Model* model_ = nullptr;
  const Options* opt_ = nullptr;
  std::size_t n_ = 0, m_ = 0;
  // Scaled structural columns (CSC) and their CSR companion (row
  // traversals); arow_next_ is the counting sort's cursor.
  std::vector<std::size_t> acol_start_, arow_start_, arow_next_;
  std::vector<linalg::SparseEntry> acol_, arow_;
  std::vector<double> art_sign_;
  std::vector<double> lb_, ub_, cost_, value_;
  std::vector<BasisStatus> status_;
  std::vector<std::size_t> basis_;
  std::vector<std::size_t> basics_;  // init_warm's basic list
  std::vector<double> row_scale_;
  // Basis factors: two buffers, so a singular rebuild keeps the current one.
  std::vector<std::vector<linalg::SparseEntry>> bcols_;
  std::array<linalg::UpdatableLU, 2> lu_;
  std::size_t active_ = 0;
  bool factored_ = false;
  // FTRAN/BTRAN work vectors: the consumed right-hand side, the entering
  // direction, row p of the inverse, basic values after a refactor.
  std::vector<double> rhs_, w_, rho_, xb_;
  std::vector<double> duals_;
  // Pricing state.
  std::vector<double> devex_w_;
  std::vector<std::size_t> cand_;
  linalg::Scatter alpha_scatter_{0};
  // Mutable: ftran/btran are const solves but account their kernel work.
  mutable SolveStats stats_;
  bool singular_failure_ = false;
  bool warm_trouble_ = false;
};

Solver::Solver() : tableau_(std::make_unique<Tableau>()) {}
Solver::~Solver() = default;
Solver::Solver(Solver&&) noexcept = default;
Solver& Solver::operator=(Solver&&) noexcept = default;

Solution Solver::solve(const Model& model, const Options& options) {
  Tableau& t = *tableau_;
  // Crossed boxes (branching artifacts) make the simplex loops meaningless;
  // the model is trivially infeasible.
  for (std::size_t j = 0; j < model.num_cols(); ++j) {
    if (model.col_lower(j) > model.col_upper(j)) {
      Solution sol;
      sol.status = Status::Infeasible;
      return sol;
    }
  }
  for (std::size_t r = 0; r < model.num_rows(); ++r) {
    if (model.row_lower(r) > model.row_upper(r)) {
      Solution sol;
      sol.status = Status::Infeasible;
      return sol;
    }
  }

  if (options.warm_start != nullptr && !options.warm_start->empty()) {
    t.reset(model, options);
    if (t.init_warm(*options.warm_start)) {
      Solution sol = t.run_warm();
      // Audit the warm answer: dual repair plus primal cleanup must land on
      // a genuinely feasible vertex. If it did not, the snapshot basis was
      // stale in a way the ladder missed — discard and solve cold.
      double bound_scale = 0.0;
      for (std::size_t r = 0; r < model.num_rows(); ++r) {
        if (model.row_lower(r) != -kInf)
          bound_scale = std::max(bound_scale, std::fabs(model.row_lower(r)));
        if (model.row_upper(r) != kInf)
          bound_scale = std::max(bound_scale, std::fabs(model.row_upper(r)));
      }
      const bool feasible_enough =
          sol.status != Status::Optimal ||
          sol.max_primal_violation <=
              100.0 * options.feasibility_tol * (1.0 + bound_scale);
      if (!t.singular_failure() && !t.warm_trouble() && feasible_enough)
        return sol;
      log::debug() << "simplex: warm start abandoned; cold solve";
    }
  }

  Options cold = options;
  cold.warm_start = nullptr;
  if (cold.presolve) {
    cold.presolve = false;  // the reduced model is solved plainly
    PresolveOptions popt;
    popt.feasibility_tol = options.feasibility_tol;
    const Presolve pre = Presolve::run(model, popt);
    if (pre.status() == Presolve::Status::Infeasible) {
      Solution sol;
      sol.status = Status::Infeasible;
      sol.stats.presolve_rows_removed = pre.rows_removed();
      sol.stats.presolve_cols_removed = pre.cols_removed();
      sol.stats.presolve_bounds_tightened = pre.bounds_tightened();
      return sol;
    }
    if (pre.effective()) {
      Solution red;
      if (pre.reduced().num_cols() == 0) {
        // Everything was fixed or substituted out; the empty LP is solved.
        red.status = Status::Optimal;
      } else {
        red = solve(pre.reduced(), cold);
      }
      Solution full = pre.postsolve(model, red);
      full.stats.presolve_rows_removed += pre.rows_removed();
      full.stats.presolve_cols_removed += pre.cols_removed();
      full.stats.presolve_bounds_tightened += pre.bounds_tightened();
      return full;
    }
  }
  t.reset(model, cold);
  t.init_cold();
  Solution sol = t.run_cold();
  if (t.singular_failure()) {
    // Retry once from scratch under Bland's rule: its conservative pivot
    // choices avoid the aggressive Dantzig path that went singular.
    Options retry = cold;
    retry.bland_threshold = 0;
    t.reset(model, retry);
    t.init_cold();
    sol = t.run_cold();
    if (t.singular_failure()) {
      log::warn() << "simplex: singular basis persisted after Bland retry";
    }
  }
  return sol;
}

Solution solve(const Model& model, const Options& options) {
  return Solver().solve(model, options);
}

}  // namespace hslb::lp

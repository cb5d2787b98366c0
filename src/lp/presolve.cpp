#include "lp/presolve.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace hslb::lp {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

double rel(double v) { return 1.0 + std::fabs(v); }

/// Activity range of a row over the alive entries, with infinite
/// contributions counted separately (finite_min/max exclude them).
struct ActivityRange {
  double finite_min = 0.0, finite_max = 0.0;
  std::size_t inf_min = 0, inf_max = 0;  ///< unbounded contributions
};

}  // namespace

Presolve Presolve::run(const Model& model, const PresolveOptions& opt) {
  Presolve out;
  out.tol_ = opt.feasibility_tol;
  const double tol = opt.feasibility_tol;
  const std::size_t n = model.num_cols();
  const std::size_t m = model.num_rows();

  std::vector<double> lb(n), ub(n), obj(n);
  for (std::size_t j = 0; j < n; ++j) {
    lb[j] = model.col_lower(j);
    ub[j] = model.col_upper(j);
    obj[j] = model.objective(j);
  }
  std::vector<char> col_alive(n, 1), row_alive(m, 1);
  std::vector<double> fsum(m, 0.0);  ///< fixed-column contribution per row

  auto infeasible = [&] {
    out.status_ = Status::Infeasible;
    return out;
  };

  // Pins column j at `value`, folding it into every row's fixed sum.
  auto fix_col = [&](std::size_t j, double value, BasisStatus side) {
    for (const ColEntry& e : model.col(j)) {
      if (row_alive[e.index]) fsum[e.index] += e.value * value;
    }
    col_alive[j] = 0;
    ++out.cols_removed_;
    Entry en;
    en.kind = Entry::Kind::FixedCol;
    en.col = j;
    en.value = value;
    en.col_status = side;
    out.stack_.push_back(std::move(en));
  };

  // Tightens one side of column j's box; returns false on a crossed box.
  auto tighten = [&](std::size_t j, double v, bool is_lower) {
    if (!std::isfinite(v)) return true;
    if (is_lower) {
      if (v > lb[j] + 1e-9 * rel(v)) {
        lb[j] = v;
        ++out.bounds_tightened_;
      }
    } else {
      if (v < ub[j] - 1e-9 * rel(v)) {
        ub[j] = v;
        ++out.bounds_tightened_;
      }
    }
    return lb[j] <= ub[j] + tol * rel(ub[j]);
  };

  auto row_range = [&](std::size_t r) {
    ActivityRange a;
    for (const auto& [j, c] : model.row(r)) {
      if (!col_alive[j]) continue;
      const double at_lo = c > 0.0 ? lb[j] : ub[j];  // minimizing choice
      const double at_hi = c > 0.0 ? ub[j] : lb[j];
      if (std::isfinite(at_lo)) a.finite_min += c * at_lo; else ++a.inf_min;
      if (std::isfinite(at_hi)) a.finite_max += c * at_hi; else ++a.inf_max;
    }
    return a;
  };

  std::vector<std::size_t> col_use(n, 0);
  bool changed = true;
  for (std::size_t pass = 0; pass < opt.max_passes && changed; ++pass) {
    changed = false;

    // ---- Row sweep: empty / singleton / redundant rows, infeasibility,
    // activity-based bound tightening. ------------------------------------
    for (std::size_t r = 0; r < m; ++r) {
      if (!row_alive[r]) continue;
      const double rlb = model.row_lower(r) == -kInf ? -kInf
                                                     : model.row_lower(r) - fsum[r];
      const double rub = model.row_upper(r) == kInf ? kInf
                                                    : model.row_upper(r) - fsum[r];
      std::size_t alive = 0;
      std::size_t last_col = kNone;
      double last_coeff = 0.0;
      for (const auto& [j, c] : model.row(r)) {
        if (!col_alive[j]) continue;
        ++alive;
        last_col = j;
        last_coeff = c;
      }

      if (alive == 0) {
        if (rlb > tol * rel(rlb) || rub < -tol * rel(rub)) return infeasible();
        row_alive[r] = 0;
        ++out.rows_removed_;
        Entry en;
        en.kind = Entry::Kind::EmptyRow;
        en.row = r;
        out.stack_.push_back(std::move(en));
        changed = true;
        continue;
      }

      if (alive == 1) {
        // a*x in [rlb, rub] becomes a bound pair on x; the row goes away.
        const double a = last_coeff;
        const std::size_t j = last_col;
        double ilo, ihi;
        if (a > 0.0) {
          ilo = rlb == -kInf ? -kInf : rlb / a;
          ihi = rub == kInf ? kInf : rub / a;
        } else {
          ilo = rub == kInf ? -kInf : rub / a;
          ihi = rlb == -kInf ? kInf : rlb / a;
        }
        if (!tighten(j, ilo, true) || !tighten(j, ihi, false))
          return infeasible();
        row_alive[r] = 0;
        ++out.rows_removed_;
        Entry en;
        en.kind = Entry::Kind::SingletonRow;
        en.row = r;
        en.col = j;
        en.value = a;
        en.implied_lb = ilo;
        en.implied_ub = ihi;
        out.stack_.push_back(std::move(en));
        changed = true;
        continue;
      }

      const ActivityRange act = row_range(r);
      const double amin = act.inf_min > 0 ? -kInf : act.finite_min;
      const double amax = act.inf_max > 0 ? kInf : act.finite_max;
      if (amin > rub + tol * rel(rub) || amax < rlb - tol * rel(rlb))
        return infeasible();
      if ((rlb == -kInf || amin >= rlb - 1e-9 * rel(rlb)) &&
          (rub == kInf || amax <= rub + 1e-9 * rel(rub))) {
        row_alive[r] = 0;
        ++out.rows_removed_;
        Entry en;
        en.kind = Entry::Kind::RedundantRow;
        en.row = r;
        out.stack_.push_back(std::move(en));
        changed = true;
        continue;
      }

      // Bound tightening from the row's activity range: with every other
      // column at its minimizing (maximizing) bound, the row bound caps how
      // far column j can move. A small slack keeps roundoff from ever
      // cutting into the true feasible box.
      const std::size_t before = out.bounds_tightened_;
      for (const auto& [j, c] : model.row(r)) {
        if (!col_alive[j]) continue;
        const double cmin = c > 0.0 ? c * lb[j] : c * ub[j];
        const double cmax = c > 0.0 ? c * ub[j] : c * lb[j];
        if (rub != kInf) {
          const bool j_is_inf = !std::isfinite(cmin);
          if (act.inf_min == 0 || (act.inf_min == 1 && j_is_inf)) {
            const double rest = j_is_inf ? act.finite_min
                                         : act.finite_min - cmin;
            double v = (rub - rest) / c;
            v += (c > 0.0 ? 1.0 : -1.0) * 1e-9 * rel(v);
            const bool ok = c > 0.0 ? tighten(j, v, false) : tighten(j, v, true);
            if (!ok) return infeasible();
          }
        }
        if (rlb != -kInf) {
          const bool j_is_inf = !std::isfinite(cmax);
          if (act.inf_max == 0 || (act.inf_max == 1 && j_is_inf)) {
            const double rest = j_is_inf ? act.finite_max
                                         : act.finite_max - cmax;
            double v = (rlb - rest) / c;
            v -= (c > 0.0 ? 1.0 : -1.0) * 1e-9 * rel(v);
            const bool ok = c > 0.0 ? tighten(j, v, true) : tighten(j, v, false);
            if (!ok) return infeasible();
          }
        }
      }
      if (out.bounds_tightened_ != before) changed = true;
    }

    // ---- Column sweep: fixed columns, implied-free singleton columns on
    // equality rows, dominated columns. ------------------------------------
    for (std::size_t j = 0; j < n; ++j) col_use[j] = 0;
    for (std::size_t r = 0; r < m; ++r) {
      if (!row_alive[r]) continue;
      for (const auto& [j, c] : model.row(r)) {
        (void)c;
        if (col_alive[j]) ++col_use[j];
      }
    }

    for (std::size_t j = 0; j < n; ++j) {
      if (!col_alive[j]) continue;
      if (lb[j] > ub[j] + tol * rel(ub[j])) return infeasible();

      if (ub[j] - lb[j] <= 1e-11 * rel(lb[j])) {
        fix_col(j, lb[j], BasisStatus::AtLower);
        changed = true;
        continue;
      }

      // Implied-free column singleton on an equality row: substitute the
      // column out of the problem together with the row; the objective load
      // moves onto the row's other columns.
      if (col_use[j] == 1) {
        std::size_t row = kNone;
        double a = 0.0;
        for (const ColEntry& e : model.col(j)) {
          if (row_alive[e.index]) {
            row = e.index;
            a = e.value;
          }
        }
        // col_use is a sweep-start snapshot; an earlier substitution this
        // pass may have killed the row. Fall through to dominance then.
        if (row != kNone && a != 0.0 &&
            model.row_lower(row) == model.row_upper(row) &&
            std::isfinite(model.row_lower(row))) {
          const double b = model.row_lower(row) - fsum[row];
          double rest_min = 0.0, rest_max = 0.0;
          bool bounded = true;
          std::vector<Coeff> others;
          for (const auto& [k, ck] : model.row(row)) {
            if (!col_alive[k] || k == j) continue;
            others.push_back({k, ck});
            const double at_lo = ck > 0.0 ? lb[k] : ub[k];
            const double at_hi = ck > 0.0 ? ub[k] : lb[k];
            if (!std::isfinite(at_lo) || !std::isfinite(at_hi)) bounded = false;
            if (bounded) {
              rest_min += ck * at_lo;
              rest_max += ck * at_hi;
            }
          }
          if (bounded && !others.empty()) {
            double ilo = (b - rest_max) / a;
            double ihi = (b - rest_min) / a;
            if (a < 0.0) std::swap(ilo, ihi);
            if (ilo >= lb[j] - tol * rel(lb[j]) &&
                ihi <= ub[j] + tol * rel(ub[j])) {
              for (const auto& [k, ck] : others) obj[k] -= obj[j] * ck / a;
              Entry en;
              en.kind = Entry::Kind::ColSingleton;
              en.row = row;
              en.col = j;
              en.value = a;
              en.rhs = b;
              en.others = others;
              out.stack_.push_back(std::move(en));
              col_alive[j] = 0;
              row_alive[row] = 0;
              ++out.cols_removed_;
              ++out.rows_removed_;
              changed = true;
              continue;
            }
          }
        }
      }

      // Dominated column: every alive row only relaxes as the column moves
      // toward one of its bounds and the objective agrees — pin it there.
      // (Columns in no alive row reduce to the pure objective direction.)
      bool down_ok = obj[j] >= 0.0 && std::isfinite(lb[j]);
      bool up_ok = obj[j] <= 0.0 && std::isfinite(ub[j]);
      if (down_ok || up_ok) {
        for (const ColEntry& e : model.col(j)) {
          if (!row_alive[e.index]) continue;
          const double rl = model.row_lower(e.index);
          const double ru = model.row_upper(e.index);
          if (e.value > 0.0) {
            if (rl != -kInf) down_ok = false;
            if (ru != kInf) up_ok = false;
          } else {
            if (ru != kInf) down_ok = false;
            if (rl != -kInf) up_ok = false;
          }
          if (!down_ok && !up_ok) break;
        }
        if (down_ok) {
          fix_col(j, lb[j], BasisStatus::AtLower);
          changed = true;
          continue;
        }
        if (up_ok) {
          fix_col(j, ub[j], BasisStatus::AtUpper);
          changed = true;
          continue;
        }
      }
    }
  }

  // Final sweep: rows that lost their last alive column after the pass
  // budget must still be resolved, so an all-fixed model reduces to the
  // empty LP instead of rows with no columns.
  for (std::size_t r = 0; r < m; ++r) {
    if (!row_alive[r]) continue;
    bool any = false;
    for (const auto& [j, c] : model.row(r)) {
      (void)c;
      if (col_alive[j]) any = true;
    }
    if (any) continue;
    const double rlb = model.row_lower(r) == -kInf ? -kInf
                                                   : model.row_lower(r) - fsum[r];
    const double rub = model.row_upper(r) == kInf ? kInf
                                                  : model.row_upper(r) - fsum[r];
    if (rlb > tol * rel(rlb) || rub < -tol * rel(rub)) return infeasible();
    row_alive[r] = 0;
    ++out.rows_removed_;
    Entry en;
    en.kind = Entry::Kind::EmptyRow;
    en.row = r;
    out.stack_.push_back(std::move(en));
  }

  // ---- Materialize the reduced model and the index maps. -----------------
  out.col_map_.assign(n, kNone);
  out.row_map_.assign(m, kNone);
  for (std::size_t j = 0; j < n; ++j) {
    if (!col_alive[j]) continue;
    out.col_map_[j] = out.kept_cols_.size();
    out.kept_cols_.push_back(j);
    out.reduced_.add_variable(lb[j], ub[j], obj[j]);
  }
  for (std::size_t r = 0; r < m; ++r) {
    if (!row_alive[r]) continue;
    std::vector<Coeff> coeffs;
    for (const auto& [j, c] : model.row(r)) {
      if (col_alive[j]) coeffs.push_back({out.col_map_[j], c});
    }
    const double rlb = model.row_lower(r) == -kInf ? -kInf
                                                   : model.row_lower(r) - fsum[r];
    const double rub = model.row_upper(r) == kInf ? kInf
                                                  : model.row_upper(r) - fsum[r];
    out.row_map_[r] = out.kept_rows_.size();
    out.kept_rows_.push_back(r);
    out.reduced_.add_constraint(std::move(coeffs), rlb, rub);
  }
  return out;
}

Solution Presolve::postsolve(const Model& original, const Solution& red) const {
  HSLB_EXPECTS(status_ == Status::Reduced);
  const std::size_t n = original.num_cols();
  const std::size_t m = original.num_rows();

  Solution full;
  full.status = red.status;
  full.iterations = red.iterations;
  full.warm_started = red.warm_started;
  full.stats = red.stats;
  full.x.assign(n, 0.0);
  full.duals.assign(m, 0.0);

  for (std::size_t jr = 0; jr < kept_cols_.size(); ++jr) {
    if (jr < red.x.size()) full.x[kept_cols_[jr]] = red.x[jr];
  }
  for (std::size_t rr = 0; rr < kept_rows_.size(); ++rr) {
    if (rr < red.duals.size()) full.duals[kept_rows_[rr]] = red.duals[rr];
  }

  const bool have_basis = red.status == lp::Status::Optimal;
  if (have_basis) {
    full.basis.cols.assign(n, BasisStatus::AtLower);
    full.basis.rows.assign(m, BasisStatus::Basic);
    for (std::size_t jr = 0; jr < kept_cols_.size(); ++jr) {
      if (jr < red.basis.cols.size())
        full.basis.cols[kept_cols_[jr]] = red.basis.cols[jr];
    }
    for (std::size_t rr = 0; rr < kept_rows_.size(); ++rr) {
      if (rr < red.basis.rows.size())
        full.basis.rows[kept_rows_[rr]] = red.basis.rows[rr];
    }
  }

  // Reduced cost of column j under the (partially recovered) duals.
  auto reduced_cost = [&](std::size_t j) {
    double rc = original.objective(j);
    for (const ColEntry& e : original.col(j)) rc -= e.value * full.duals[e.index];
    return rc;
  };

  // Replay the reduction stack in reverse: each entry rebuilds the primal
  // value, basis status, and (where recoverable) dual of what it removed.
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    const Entry& en = *it;
    switch (en.kind) {
      case Entry::Kind::FixedCol:
        full.x[en.col] = en.value;
        if (have_basis) full.basis.cols[en.col] = en.col_status;
        break;
      case Entry::Kind::EmptyRow:
      case Entry::Kind::RedundantRow:
        break;  // slack basic, dual 0 — the defaults
      case Entry::Kind::ColSingleton: {
        double rest = 0.0;
        for (const auto& [k, ck] : en.others) rest += ck * full.x[k];
        full.x[en.col] = (en.rhs - rest) / en.value;
        if (have_basis) {
          full.basis.cols[en.col] = BasisStatus::Basic;
          full.basis.rows[en.row] = BasisStatus::AtLower;
          full.duals[en.row] = reduced_cost(en.col) / en.value;
        }
        break;
      }
      case Entry::Kind::SingletonRow: {
        // The row's slack comes back basic (always a valid completion). If
        // the column sits on the bound this row implied, the bound is really
        // the row: move the column's reduced cost onto the row's dual.
        if (!have_basis) break;
        if (full.basis.cols[en.col] == BasisStatus::Basic) break;
        const double xv = full.x[en.col];
        const double tolb = 10.0 * tol_ * (1.0 + std::fabs(xv));
        const bool at_lo = std::isfinite(en.implied_lb) &&
                           std::fabs(xv - en.implied_lb) <= tolb;
        const bool at_hi = std::isfinite(en.implied_ub) &&
                           std::fabs(xv - en.implied_ub) <= tolb;
        if (at_lo || at_hi) {
          const double rc = reduced_cost(en.col);
          if (std::fabs(rc) > 1e-12) full.duals[en.row] = rc / en.value;
        }
        break;
      }
    }
  }

  // Evaluate the answer in the original space.
  double obj = 0.0;
  for (std::size_t j = 0; j < n; ++j) obj += original.objective(j) * full.x[j];
  full.objective = obj;
  double viol = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    const double act = original.row_activity(r, full.x);
    if (original.row_lower(r) != -kInf)
      viol = std::max(viol, original.row_lower(r) - act);
    if (original.row_upper(r) != kInf)
      viol = std::max(viol, act - original.row_upper(r));
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (original.col_lower(j) != -kInf)
      viol = std::max(viol, original.col_lower(j) - full.x[j]);
    if (original.col_upper(j) != kInf)
      viol = std::max(viol, full.x[j] - original.col_upper(j));
  }
  full.max_primal_violation = viol;
  return full;
}

}  // namespace hslb::lp

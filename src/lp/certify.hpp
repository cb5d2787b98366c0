// Optimality certificate of an LP answer, recomputed from the lp::Model
// alone (its rows, bounds and costs), never from the tableau or the
// factorization that produced the answer.
//
// For  minimize c'x  s.t.  rl <= Ax <= ru,  l <= x <= u  and a claimed
// optimum x with one multiplier y_r per row, the reduced costs are
// d = c - A'y. The pair is optimal exactly when
//   - x meets every row and column bound (primal residual 0);
//   - every multiplier has the sign its position allows: y_r > 0 only when
//     row r's activity sits at rl_r, y_r < 0 only at ru_r, and likewise d_j
//     against x_j's box (dual violation 0);
//   - c'x equals the dual objective sum_r y_r b_r + sum_j d_j l_or_u_j,
//     where each multiplier takes the bound its sign selects (gap 0).
#pragma once

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace hslb::lp {

struct Certificate {
  double primal_residual = 0.0;  ///< worst row or column bound violation of x
  double dual_violation = 0.0;   ///< worst wrong-signed row dual or reduced cost
  double gap = 0.0;              ///< |c'x - dual objective| / (1 + |c'x|)

  /// True when all three measures are at most `tol`.
  bool holds(double tol) const {
    return primal_residual <= tol && dual_violation <= tol && gap <= tol;
  }
};

/// Certifies `solution.x` and `solution.duals` against `model`. A value
/// sits at a bound when it is within 1e-9 of it, relative to 1 + |bound|
/// plus, for a row, the sum of |a_rj x_j|. A multiplier whose sign selects
/// an infinite bound is a dual violation and adds nothing to the dual
/// objective. Requires one x entry per column and one dual per row.
Certificate certify(const Model& model, const Solution& solution);

}  // namespace hslb::lp

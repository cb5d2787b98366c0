#include "lp/certify.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/contracts.hpp"

namespace hslb::lp {

namespace {

constexpr double kAtBound = 1e-9;

/// One value v (x_j or a row activity) in its box [lo, hi] with multiplier
/// `mult` (d_j or y_r). v sits at a bound within kAtBound relative to the
/// bound and to `magnitude`, the size of the terms that formed v. Folds the
/// bound violation, the sign violation and the dual-objective term into
/// `cert` and `dual_obj`.
void account(double v, double lo, double hi, double mult, double magnitude,
             Certificate& cert, double& dual_obj) {
  const auto at = [&](double bound) {
    return std::fabs(v - bound) <=
           kAtBound * (1.0 + std::fabs(bound) + magnitude);
  };
  if (lo != -kInf) cert.primal_residual = std::max(cert.primal_residual, lo - v);
  if (hi != kInf) cert.primal_residual = std::max(cert.primal_residual, v - hi);
  // Positive multipliers price the lower bound, negative ones the upper.
  if (mult > 0.0) {
    if (lo == -kInf || !at(lo))
      cert.dual_violation = std::max(cert.dual_violation, mult);
    if (lo != -kInf) dual_obj += mult * lo;
  } else if (mult < 0.0) {
    if (hi == kInf || !at(hi))
      cert.dual_violation = std::max(cert.dual_violation, -mult);
    if (hi != kInf) dual_obj += mult * hi;
  }
}

}  // namespace

Certificate certify(const Model& model, const Solution& solution) {
  const std::size_t n = model.num_cols();
  const std::size_t m = model.num_rows();
  HSLB_EXPECTS(solution.x.size() == n);
  HSLB_EXPECTS(solution.duals.size() == m);
  const std::vector<double>& x = solution.x;
  const std::vector<double>& y = solution.duals;

  Certificate cert;
  double dual_obj = 0.0;
  std::vector<double> reduced(n);
  double primal_obj = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    reduced[j] = model.objective(j);
    primal_obj += model.objective(j) * x[j];
  }
  for (std::size_t r = 0; r < m; ++r) {
    double activity = 0.0, magnitude = 0.0;
    for (const auto& [col, a] : model.row(r)) {
      activity += a * x[col];
      magnitude += std::fabs(a * x[col]);
      reduced[col] -= y[r] * a;
    }
    account(activity, model.row_lower(r), model.row_upper(r), y[r],
            magnitude, cert, dual_obj);
  }
  for (std::size_t j = 0; j < n; ++j) {
    account(x[j], model.col_lower(j), model.col_upper(j), reduced[j], 0.0,
            cert, dual_obj);
  }
  cert.gap = std::fabs(primal_obj - dual_obj) / (1.0 + std::fabs(primal_obj));
  return cert;
}

}  // namespace hslb::lp

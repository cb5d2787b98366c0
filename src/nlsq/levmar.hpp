// Box-constrained nonlinear least squares by Levenberg-Marquardt with
// gradient projection.
//
// This implements the Fit step of HSLB (§III-C, Table II line 10): the
// objective min sum_i (y_i - T(n_i; a,b,c,d))^2 subject to a,b,c,d >= 0 is
// non-convex, so the paper recommends trying several starting points; see
// multistart.hpp for that wrapper.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace hslb::nlsq {

/// Residual function r(p) with an optional analytic Jacobian dr/dp, both
/// writing into caller-owned buffers: `residuals(p, r)` fills the
/// num_residuals entries of r, `jacobian(p, jac)` every entry of the
/// num_residuals x num_params matrix jac. When `jacobian` is empty, central
/// finite differences are used.
struct Problem {
  std::size_t num_params = 0;
  std::size_t num_residuals = 0;
  std::function<void(std::span<const double>, std::span<double>)> residuals;
  std::function<void(std::span<const double>, linalg::Matrix&)>
      jacobian;  // optional

  /// Box bounds; empty means unbounded in that direction.
  linalg::Vector lower, upper;  // sized num_params, +-inf allowed

  /// SSE cost at p.
  double cost(std::span<const double> p) const;
};

struct LevMarOptions {
  std::size_t max_iterations = 200;
  double gradient_tol = 1e-10;   ///< projected-gradient infinity norm
  double step_tol = 1e-12;       ///< relative step size
  double cost_tol = 1e-14;       ///< relative cost decrease
  double initial_lambda = 1e-3;
  double lambda_up = 10.0;
  double lambda_down = 0.3;
  double max_lambda = 1e12;
};

struct LevMarResult {
  linalg::Vector params;
  double cost = 0.0;            ///< sum of squared residuals at `params`
  std::size_t iterations = 0;
  bool converged = false;
};

/// Runs LM from `start` (projected into the box first). With an analytic
/// Jacobian every workspace is allocated once per call. The residuals of an
/// accepted step are reused at the next iterate, so each iterate's residuals
/// are evaluated once.
LevMarResult minimize(const Problem& problem, std::span<const double> start,
                      const LevMarOptions& options = {});

/// Central-difference Jacobian helper (exposed for tests).
linalg::Matrix numeric_jacobian(const Problem& problem,
                                std::span<const double> p);

}  // namespace hslb::nlsq

#include "nlsq/levmar.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "linalg/decomp.hpp"

namespace hslb::nlsq {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

double clamp_to_box(const Problem& pb, std::size_t i, double v) {
  const double lo = pb.lower.empty() ? -kInf : pb.lower[i];
  const double hi = pb.upper.empty() ? kInf : pb.upper[i];
  return std::clamp(v, lo, hi);
}

double sum_squares(std::span<const double> r) {
  double acc = 0.0;
  for (double v : r) acc += v * v;
  return acc;
}

}  // namespace

double Problem::cost(std::span<const double> p) const {
  linalg::Vector r(num_residuals);
  residuals(p, r);
  return sum_squares(r);
}

linalg::Matrix numeric_jacobian(const Problem& problem,
                                std::span<const double> p) {
  linalg::Matrix jac(problem.num_residuals, problem.num_params);
  linalg::Vector q(p.begin(), p.end());
  linalg::Vector r_fwd(problem.num_residuals), r_bwd(problem.num_residuals);
  for (std::size_t j = 0; j < problem.num_params; ++j) {
    const double h = 1e-7 * (1.0 + std::fabs(q[j]));
    // Respect the box: fall back to one-sided differences at a bound.
    const double lo = problem.lower.empty() ? -kInf : problem.lower[j];
    const double hi = problem.upper.empty() ? kInf : problem.upper[j];
    const double fwd = std::min(q[j] + h, hi);
    const double bwd = std::max(q[j] - h, lo);
    HSLB_ASSERT(fwd > bwd);
    const double saved = q[j];
    q[j] = fwd;
    problem.residuals(q, r_fwd);
    q[j] = bwd;
    problem.residuals(q, r_bwd);
    q[j] = saved;
    for (std::size_t i = 0; i < problem.num_residuals; ++i)
      jac(i, j) = (r_fwd[i] - r_bwd[i]) / (fwd - bwd);
  }
  return jac;
}

LevMarResult minimize(const Problem& problem, std::span<const double> start,
                      const LevMarOptions& options) {
  HSLB_EXPECTS(problem.num_params > 0);
  HSLB_EXPECTS(problem.num_residuals >= 1);
  HSLB_EXPECTS(start.size() == problem.num_params);
  HSLB_EXPECTS(problem.lower.empty() || problem.lower.size() == problem.num_params);
  HSLB_EXPECTS(problem.upper.empty() || problem.upper.size() == problem.num_params);

  const std::size_t np = problem.num_params;
  const std::size_t nr = problem.num_residuals;
  linalg::Vector x(start.begin(), start.end());
  for (std::size_t i = 0; i < np; ++i) x[i] = clamp_to_box(problem, i, x[i]);

  // Workspaces for the whole descent. `r` always holds the residuals at
  // `x`: a trial's residuals become it when the trial is accepted.
  linalg::Vector x_new(np), r(nr), r_new(nr), g(np), delta(np);
  linalg::Matrix jac(nr, np), jtj, a;
  linalg::Cholesky chol;

  LevMarResult result;
  problem.residuals(x, r);
  double cost = sum_squares(r);
  double lambda = options.initial_lambda;

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    if (problem.jacobian) {
      problem.jacobian(x, jac);
    } else {
      jac = numeric_jacobian(problem, x);
    }
    HSLB_ASSERT(jac.rows() == nr);
    HSLB_ASSERT(jac.cols() == np);

    // Gradient of SSE: g = 2 J^T r (factor 2 irrelevant for tests below).
    jac.mul_transpose(r, g);

    // Projected-gradient convergence test: components pushing out of the
    // box at an active bound do not count.
    double gmax = 0.0;
    for (std::size_t i = 0; i < np; ++i) {
      const double lo = problem.lower.empty() ? -kInf : problem.lower[i];
      const double hi = problem.upper.empty() ? kInf : problem.upper[i];
      double gi = g[i];
      if (x[i] <= lo && gi > 0) gi = 0;   // descent would leave the box
      if (x[i] >= hi && gi < 0) gi = 0;
      gmax = std::max(gmax, std::fabs(gi));
    }
    if (gmax < options.gradient_tol * (1.0 + cost)) {
      result.converged = true;
      break;
    }

    jac.gram(jtj);

    bool stepped = false;
    while (lambda <= options.max_lambda) {
      // (J^T J + lambda * diag(J^T J) + eps I) delta = -J^T r
      a = jtj;
      for (std::size_t i = 0; i < np; ++i)
        a(i, i) += lambda * std::max(jtj(i, i), 1e-12);
      if (!chol.refactor(a)) {
        lambda *= options.lambda_up;
        continue;
      }
      chol.solve(g, delta);
      for (double& d : delta) d = -d;

      for (std::size_t i = 0; i < np; ++i)
        x_new[i] = clamp_to_box(problem, i, x[i] + delta[i]);

      problem.residuals(x_new, r_new);
      const double new_cost = sum_squares(r_new);
      if (new_cost < cost) {
        // Accept.
        double step = 0.0, scale = 0.0;
        for (std::size_t i = 0; i < np; ++i) {
          step = std::max(step, std::fabs(x_new[i] - x[i]));
          scale = std::max(scale, std::fabs(x[i]));
        }
        const bool tiny_step = step < options.step_tol * (1.0 + scale);
        const bool tiny_decrease =
            (cost - new_cost) < options.cost_tol * (1.0 + cost);
        x.swap(x_new);
        r.swap(r_new);
        cost = new_cost;
        lambda = std::max(lambda * options.lambda_down, 1e-12);
        stepped = true;
        if (tiny_step || tiny_decrease) {
          result.converged = true;
        }
        break;
      }
      lambda *= options.lambda_up;
    }
    if (!stepped || result.converged) {
      // lambda exhausted: we are at a (numerical) local minimum.
      result.converged = result.converged || !stepped;
      break;
    }
  }

  result.params = std::move(x);
  result.cost = cost;
  return result;
}

}  // namespace hslb::nlsq

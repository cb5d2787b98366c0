#include "nlsq/levmar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "nlsq/multistart.hpp"

namespace hslb::nlsq {
namespace {

/// Quadratic bowl: r_i = x_i - t_i, minimized exactly at x = t.
Problem bowl(const linalg::Vector& target) {
  Problem p;
  p.num_params = target.size();
  p.num_residuals = target.size();
  p.residuals = [target](std::span<const double> x, std::span<double> r) {
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = x[i] - target[i];
  };
  return p;
}

TEST(LevMar, FindsQuadraticMinimum) {
  const auto p = bowl({1.0, -2.0, 3.0});
  const auto res = minimize(p, std::vector<double>{0.0, 0.0, 0.0});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.params[0], 1.0, 1e-8);
  EXPECT_NEAR(res.params[1], -2.0, 1e-8);
  EXPECT_NEAR(res.params[2], 3.0, 1e-8);
  EXPECT_NEAR(res.cost, 0.0, 1e-14);
}

TEST(LevMar, RespectsBoxConstraints) {
  auto p = bowl({5.0});
  p.lower = {0.0};
  p.upper = {2.0};  // unconstrained optimum 5 is outside
  const auto res = minimize(p, std::vector<double>{1.0});
  EXPECT_NEAR(res.params[0], 2.0, 1e-9);
  EXPECT_NEAR(res.cost, 9.0, 1e-8);
}

TEST(LevMar, StartOutsideBoxIsProjected) {
  auto p = bowl({0.5});
  p.lower = {0.0};
  p.upper = {1.0};
  const auto res = minimize(p, std::vector<double>{42.0});
  EXPECT_NEAR(res.params[0], 0.5, 1e-8);
}

/// Rosenbrock as least squares: r1 = 10(y - x^2), r2 = 1 - x.
Problem rosenbrock() {
  Problem p;
  p.num_params = 2;
  p.num_residuals = 2;
  p.residuals = [](std::span<const double> v, std::span<double> r) {
    r[0] = 10.0 * (v[1] - v[0] * v[0]);
    r[1] = 1.0 - v[0];
  };
  return p;
}

TEST(LevMar, RosenbrockConverges) {
  LevMarOptions opt;
  opt.max_iterations = 500;
  const auto res = minimize(rosenbrock(), std::vector<double>{-1.2, 1.0}, opt);
  EXPECT_NEAR(res.params[0], 1.0, 1e-6);
  EXPECT_NEAR(res.params[1], 1.0, 1e-6);
}

/// y = p0 * exp(p1 * t) against synthetic exact data from (2, -0.7).
Problem exponential_fit() {
  static const std::vector<double> ts{0.0, 0.5, 1.0, 1.5, 2.0};
  Problem p;
  p.num_params = 2;
  p.num_residuals = ts.size();
  p.residuals = [](std::span<const double> v, std::span<double> r) {
    for (std::size_t i = 0; i < ts.size(); ++i)
      r[i] = 2.0 * std::exp(-0.7 * ts[i]) - v[0] * std::exp(v[1] * ts[i]);
  };
  return p;
}

TEST(LevMar, ExponentialCurveFit) {
  const auto res = minimize(exponential_fit(), std::vector<double>{1.0, 0.0});
  EXPECT_NEAR(res.params[0], 2.0, 1e-6);
  EXPECT_NEAR(res.params[1], -0.7, 1e-6);
}

TEST(LevMar, EvaluatesResidualsOnceAtEachJacobianPoint) {
  // The residuals of an accepted trial are the residuals at the next
  // iterate, so LM must reuse them instead of evaluating that point again.
  struct Case {
    Problem problem;
    std::vector<double> start;
  };
  for (Case c : {Case{rosenbrock(), {-1.2, 1.0}},
                 Case{exponential_fit(), {1.0, 0.0}}}) {
    std::vector<std::vector<double>> residual_points, jacobian_points;
    Problem p = c.problem;
    p.residuals = [&, inner = c.problem](std::span<const double> v,
                                         std::span<double> r) {
      residual_points.emplace_back(v.begin(), v.end());
      inner.residuals(v, r);
    };
    p.jacobian = [&, inner = c.problem](std::span<const double> v,
                                        linalg::Matrix& jac) {
      jacobian_points.emplace_back(v.begin(), v.end());
      jac = numeric_jacobian(inner, v);
    };
    LevMarOptions opt;
    opt.max_iterations = 500;
    const auto res = minimize(p, c.start, opt);
    EXPECT_TRUE(res.converged);
    ASSERT_FALSE(jacobian_points.empty());
    for (const auto& at : jacobian_points) {
      EXPECT_EQ(std::count(residual_points.begin(), residual_points.end(), at),
                1)
          << "at (" << at[0] << ", " << at[1] << ")";
    }
  }
}

TEST(LevMar, NumericJacobianMatchesAnalytic) {
  Problem p;
  p.num_params = 2;
  p.num_residuals = 3;
  const std::vector<double> ts{1.0, 2.0, 3.0};
  p.residuals = [&](std::span<const double> v, std::span<double> r) {
    for (std::size_t i = 0; i < 3; ++i) r[i] = v[0] * ts[i] * ts[i] + v[1] / ts[i];
  };
  const std::vector<double> at{0.7, -1.3};
  const auto jac = numeric_jacobian(p, at);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(jac(i, 0), ts[i] * ts[i], 1e-5);
    EXPECT_NEAR(jac(i, 1), 1.0 / ts[i], 1e-5);
  }
}

TEST(LevMar, CostNeverIncreases) {
  // Track costs across iterations via a wrapper counting evaluations.
  Problem p;
  p.num_params = 2;
  p.num_residuals = 4;
  p.residuals = [](std::span<const double> v, std::span<double> r) {
    r[0] = v[0] - 1.0;
    r[1] = v[1] + 2.0;
    r[2] = v[0] * v[1] - 3.0;
    r[3] = std::sin(v[0]);
  };
  const std::vector<double> start{5.0, 5.0};
  const double initial_cost = p.cost(start);
  const auto res = minimize(p, start);
  EXPECT_LE(res.cost, initial_cost);
}

TEST(Multistart, EscapesLocalMinimum) {
  // f(x) = (x^2 - 4)^2 has minima at +-2; from a box biased positive and
  // several starts we must find cost ~0.
  Problem p;
  p.num_params = 1;
  p.num_residuals = 1;
  p.residuals = [](std::span<const double> v, std::span<double> r) {
    r[0] = v[0] * v[0] - 4.0;
  };
  const linalg::Vector lo{0.1}, hi{10.0};
  const auto res = minimize_multistart(p, lo, hi);
  EXPECT_NEAR(res.best.cost, 0.0, 1e-10);
  EXPECT_EQ(res.starts_tried, 16u);
  EXPECT_EQ(res.local_costs.size(), 16u);
}

TEST(Multistart, DeterministicForSeed) {
  Problem p;
  p.num_params = 1;
  p.num_residuals = 1;
  p.residuals = [](std::span<const double> v, std::span<double> r) {
    r[0] = std::cos(v[0]) + 0.1 * v[0];
  };
  const linalg::Vector lo{0.5}, hi{20.0};
  MultistartOptions opt;
  opt.seed = 99;
  const auto r1 = minimize_multistart(p, lo, hi, opt);
  const auto r2 = minimize_multistart(p, lo, hi, opt);
  EXPECT_EQ(r1.best.params[0], r2.best.params[0]);
  EXPECT_EQ(r1.local_costs, r2.local_costs);
}

TEST(Multistart, RejectsInfiniteStartBox) {
  Problem p;
  p.num_params = 1;
  p.num_residuals = 1;
  p.residuals = [](std::span<const double> v, std::span<double> r) {
    r[0] = v[0];
  };
  const linalg::Vector lo{0.0};
  const linalg::Vector hi{std::numeric_limits<double>::infinity()};
  EXPECT_THROW(minimize_multistart(p, lo, hi), ContractViolation);
}

}  // namespace
}  // namespace hslb::nlsq

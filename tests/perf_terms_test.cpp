#include "perf/terms.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "perf/fit.hpp"
#include "perf/model.hpp"

namespace hslb::perf {
namespace {

TEST(Terms, PowerLawTermDelegatesToModelExactly) {
  const Model m{4852.7, 1e-6, 2.5, 22.5};
  const double params[] = {m.a, m.b, m.c, m.d};
  const auto term = power_law_term();
  ASSERT_EQ(term->num_params(), 4u);
  for (double n : {1.0, 3.0, 17.0, 256.0}) {
    EXPECT_EQ(term->eval(params, n), m.eval(n));
    EXPECT_EQ(term->deriv_n(params, n), m.deriv_n(n));
  }
  EXPECT_TRUE(term->is_convex(params));
}

TEST(Terms, SinglePowerLawCostModelIsBitIdentical) {
  const Model m{5000.0, 2e-4, 1.3, 12.0};
  const CostModel cm(m);  // implicit conversion path used by BudgetTask
  for (double n : {1.0, 2.0, 7.0, 96.0}) {
    EXPECT_EQ(cm.eval(n), m.eval(n));
    EXPECT_EQ(cm.deriv_n(n), m.deriv_n(n));
  }
  const auto [cn, ct] = cm.argmin_int(1, 96);
  const auto [mn, mt] = m.argmin_int(1, 96);
  EXPECT_EQ(cn, mn);
  EXPECT_EQ(ct, mt);
  ASSERT_TRUE(cm.power_law().has_value());
  EXPECT_EQ(cm.power_law()->a, m.a);
  EXPECT_EQ(cm.min_feasible_nodes(), 1);
  EXPECT_FALSE(cm.empty());
}

TEST(Terms, PinnedCommTermMath) {
  // 0.25 GB per neighbour pair, 4 pairs, 2 GB/s link: 0.5*n seconds.
  const auto term = make_comm_term(0.25 * 4, 0.5);
  EXPECT_EQ(term->num_params(), 0u);
  EXPECT_DOUBLE_EQ(term->eval({}, 3.0), 1.5);
  EXPECT_DOUBLE_EQ(term->deriv_n({}, 3.0), 0.5);
  double slope = 0.0, intercept = 1.0;
  ASSERT_TRUE(term->linear_in_n({}, slope, intercept));
  EXPECT_DOUBLE_EQ(slope, 0.5);
  EXPECT_EQ(intercept, 0.0);
  EXPECT_TRUE(term->is_convex({}));
}

TEST(Terms, PinnedMemoryTermMath) {
  // 8 GB working set, 2 GB/node capacity, 0.5 s per spilled GB.
  const auto term = make_memory_term(8.0, 2.0, 0.5);
  EXPECT_EQ(term->num_params(), 0u);
  // 2 nodes hold 4 GB: 4 GB spilled at 0.5 s/GB = 2 s.
  EXPECT_DOUBLE_EQ(term->eval({}, 2.0), 2.0);
  // 4+ nodes fit the set exactly: no penalty.
  EXPECT_EQ(term->eval({}, 4.0), 0.0);
  EXPECT_EQ(term->eval({}, 16.0), 0.0);
  EXPECT_DOUBLE_EQ(term->deriv_n({}, 2.0), -1.0);
  EXPECT_EQ(term->deriv_n({}, 8.0), 0.0);
  double cap = 0.0, demand = 0.0;
  ASSERT_TRUE(term->knapsack_row(cap, demand));
  EXPECT_DOUBLE_EQ(cap, 2.0);
  EXPECT_DOUBLE_EQ(demand, 8.0);
}

TEST(Terms, MemoryKnapsackRaisesMinFeasibleNodes) {
  CostModel cm(Model{100.0, 0.0, 1.0, 1.0});
  cm.add(make_memory_term(8.0, 3.0, 0.0));
  // ceil(8/3) = 3 nodes needed just to hold the working set.
  EXPECT_EQ(cm.min_feasible_nodes(), 3);
  // argmin honours the floor.
  EXPECT_GE(cm.argmin_int(cm.min_feasible_nodes(), 96).first, 3);
}

TEST(Terms, CompositeModelSumsTerms) {
  CostModel cm(Model{100.0, 0.0, 1.0, 2.0});
  cm.add(make_comm_term(1.0, 0.25));  // 0.25*n
  const double n = 8.0;
  EXPECT_DOUBLE_EQ(cm.eval(n), 100.0 / n + 2.0 + 0.25 * n);
  EXPECT_EQ(cm.num_terms(), 2u);
  EXPECT_DOUBLE_EQ(cm.term_seconds(0, n), 100.0 / n + 2.0);
  EXPECT_DOUBLE_EQ(cm.term_seconds(1, n), 0.25 * n);
  // The comm term moves the sweet spot below the compute-only argmin.
  const auto [best, t] = cm.argmin_int(1, 96);
  EXPECT_EQ(best, 20);  // d/dn = -100/n^2 + 0.25 = 0 at n = 20
  EXPECT_DOUBLE_EQ(t, cm.eval(20.0));
  double slope = 0.0, intercept = 0.0;
  ASSERT_TRUE(cm.linear_part(slope, intercept));
  EXPECT_DOUBLE_EQ(slope, 0.25);
  EXPECT_TRUE(cm.has_nonlinear());
}

TEST(Terms, GenericFitRecoversCommSlope) {
  // Ground truth: T(n) = 400/n + 5 + 0.2*n, sampled noise-free.
  SampleSet samples;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    samples.push_back({n, 400.0 / n + 5.0 + 0.2 * n});
  }
  CostModelSpec spec{compute_term(), serial_term(), make_comm_term(1.0)};
  FitOptions opt;
  opt.min_c = 0.5;
  const auto fit = fit_cost(samples, spec, opt);
  EXPECT_TRUE(fit.converged);
  EXPECT_GT(fit.r2, 0.9999);
  // Slope of the fitted comm term (volume 1 GB => beta is the slope).
  double slope = 0.0, intercept = 0.0;
  ASSERT_TRUE(fit.cost.linear_part(slope, intercept));
  EXPECT_NEAR(slope, 0.2, 1e-3);
  EXPECT_NEAR(fit.cost.eval(10.0), 400.0 / 10.0 + 5.0 + 2.0, 1e-2);
}

TEST(Terms, PinnedOnlySpecNeedsNoFit) {
  SampleSet samples;
  for (double n : {1.0, 2.0, 4.0}) samples.push_back({n, 0.5 * n});
  const auto fit = fit_cost(samples, {make_comm_term(1.0, 0.5)}, {});
  EXPECT_TRUE(fit.converged);
  EXPECT_DOUBLE_EQ(fit.cost.eval(4.0), 2.0);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

}  // namespace
}  // namespace hslb::perf

#include "perf/terms.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "perf/model.hpp"

namespace hslb::perf {
namespace {

TEST(Terms, PowerLawOnlyCostModelIsBitIdentical) {
  const Model m{5000.0, 2e-4, 1.3, 12.0};
  const CostModel cm(m);  // implicit conversion path used by BudgetTask
  for (double n : {1.0, 2.0, 7.0, 96.0}) {
    EXPECT_EQ(cm.eval(n), m.eval(n));
    EXPECT_EQ(cm.deriv_n(n), m.deriv_n(n));
    EXPECT_EQ(cm.eval_nonlinear(n), m.eval(n));
  }
  const auto [cn, ct] = cm.argmin_int(1, 96);
  const auto [mn, mt] = m.argmin_int(1, 96);
  EXPECT_EQ(cn, mn);
  EXPECT_EQ(ct, mt);
  EXPECT_EQ(cm.min_feasible_nodes(), 1);
  EXPECT_TRUE(cm.is_convex());
  double slope = 1.0, intercept = 1.0;
  EXPECT_FALSE(cm.linear_part(slope, intercept));
  EXPECT_EQ(cm.expr("n"), m.expr("n"));
  ASSERT_EQ(cm.term_seconds(7.0).size(), 1u);
  EXPECT_EQ(cm.term_seconds(7.0)[0].first, "powerlaw");
  EXPECT_EQ(cm.term_seconds(7.0)[0].second, m.eval(7.0));
}

TEST(Terms, PinnedCommTermMath) {
  // 0.25 GB per neighbour pair, 4 pairs, 2 GB/s link: 0.5*n seconds.
  CostModel cm;
  cm.pin_comm(0.25 * 4, 0.5);
  EXPECT_DOUBLE_EQ(cm.eval(3.0), 1.5);
  EXPECT_DOUBLE_EQ(cm.deriv_n(3.0), 0.5);
  double slope = 0.0, intercept = 1.0;
  ASSERT_TRUE(cm.linear_part(slope, intercept));
  EXPECT_DOUBLE_EQ(slope, 0.5);
  EXPECT_EQ(intercept, 0.0);
  EXPECT_TRUE(cm.is_convex());
  EXPECT_THROW(cm.pin_comm(-1.0, 0.5), ContractViolation);
}

TEST(Terms, PinnedMemoryTermMath) {
  // 8 GB working set, 2 GB/node capacity, 0.5 s per spilled GB.
  CostModel cm;
  cm.pin_memory(8.0, 2.0, 0.5);
  // 2 nodes hold 4 GB: 4 GB spilled at 0.5 s/GB = 2 s.
  EXPECT_DOUBLE_EQ(cm.eval(2.0), 2.0);
  // 4+ nodes fit the set exactly: no penalty.
  EXPECT_EQ(cm.eval(4.0), 0.0);
  EXPECT_EQ(cm.eval(16.0), 0.0);
  EXPECT_DOUBLE_EQ(cm.deriv_n(2.0), -1.0);
  EXPECT_EQ(cm.deriv_n(8.0), 0.0);
  ASSERT_TRUE(cm.memory().has_value());
  EXPECT_DOUBLE_EQ(cm.memory()->capacity_gb, 2.0);
  EXPECT_DOUBLE_EQ(cm.memory()->demand_gb, 8.0);
  EXPECT_THROW(cm.pin_memory(8.0, 0.0, 0.5), ContractViolation);
  EXPECT_THROW(cm.pin_memory(8.0, 2.0, -0.5), ContractViolation);
}

TEST(Terms, MemoryKnapsackRaisesMinFeasibleNodes) {
  CostModel cm(Model{100.0, 0.0, 1.0, 1.0});
  cm.pin_memory(8.0, 3.0, 0.0);
  // ceil(8/3) = 3 nodes needed just to hold the working set.
  EXPECT_EQ(cm.min_feasible_nodes(), 3);
  // argmin honours the floor.
  EXPECT_GE(cm.argmin_int(cm.min_feasible_nodes(), 96).first, 3);
  // A gamma = 0 row adds no charge and no nonlinear part.
  EXPECT_EQ(cm.eval(1.0), 101.0);
  EXPECT_EQ(cm.expr_nonlinear("n"), "100/n + 1");
}

TEST(Terms, CompositeModelSumsTerms) {
  CostModel cm(Model{100.0, 0.0, 1.0, 2.0});
  cm.pin_comm(1.0, 0.25);  // 0.25*n
  const double n = 8.0;
  EXPECT_DOUBLE_EQ(cm.eval(n), 100.0 / n + 2.0 + 0.25 * n);
  const auto terms = cm.term_seconds(n);
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0].first, "powerlaw");
  EXPECT_DOUBLE_EQ(terms[0].second, 100.0 / n + 2.0);
  EXPECT_EQ(terms[1].first, "comm");
  EXPECT_DOUBLE_EQ(terms[1].second, 0.25 * n);
  // The comm term moves the sweet spot below the compute-only argmin.
  const auto [best, t] = cm.argmin_int(1, 96);
  EXPECT_EQ(best, 20);  // d/dn = -100/n^2 + 0.25 = 0 at n = 20
  EXPECT_DOUBLE_EQ(t, cm.eval(20.0));
  double slope = 0.0, intercept = 0.0;
  ASSERT_TRUE(cm.linear_part(slope, intercept));
  EXPECT_DOUBLE_EQ(slope, 0.25);

  // A paging memory row joins the nonlinear part (8 GB, 2 GB/node,
  // 0.5 s/GB). Values captured from the open term hierarchy this type
  // replaced, compared exactly.
  cm.pin_memory(8.0, 2.0, 0.5);
  EXPECT_EQ(cm.eval(3.0), 37.083333333333336);
  EXPECT_EQ(cm.deriv_n(3.0), -11.86111111111111);
  EXPECT_EQ(cm.eval_nonlinear(3.0), 36.333333333333336);
  EXPECT_EQ(cm.deriv_nonlinear(3.0), -12.111111111111111);
  EXPECT_EQ(cm.argmin_int(1, 96), (std::pair<long long, double>{20, 12}));
  EXPECT_EQ(cm.min_feasible_nodes(), 4);
  const auto with_memory = cm.term_seconds(3.0);
  ASSERT_EQ(with_memory.size(), 3u);
  EXPECT_EQ(with_memory[2].first, "memory");
  EXPECT_EQ(with_memory[2].second, 1.0);
  EXPECT_EQ(cm.str(), "T(n) = 100/n + 2 + 0.25*n + 0.5*max(0, 8 - 2*n)");
  EXPECT_EQ(cm.expr_nonlinear("n_x"), "100/n_x + 2 + 0.5*max(0, 8 - 2*n_x)");
}

}  // namespace
}  // namespace hslb::perf

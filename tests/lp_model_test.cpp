#include "lp/model.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace hslb::lp {
namespace {

TEST(LpModel, AddVariableReturnsIndices) {
  Model m;
  EXPECT_EQ(m.add_variable(0.0, 1.0, 2.0), 0u);
  EXPECT_EQ(m.add_variable(-kInf, kInf, 0.0), 1u);
  EXPECT_EQ(m.num_cols(), 2u);
}

TEST(LpModel, InvertedBoundsRejected) {
  Model m;
  EXPECT_THROW(m.add_variable(1.0, 0.0, 0.0), ContractViolation);
}

TEST(LpModel, ConstraintMergesDuplicates) {
  Model m;
  const auto x = m.add_variable(0.0, 10.0, 1.0);
  const auto r = m.add_constraint({{x, 1.0}, {x, 2.0}}, 0.0, 5.0);
  ASSERT_EQ(m.row(r).size(), 1u);
  EXPECT_DOUBLE_EQ(m.row(r)[0].second, 3.0);
}

TEST(LpModel, ConstraintDropsExplicitAndCancelledZeros) {
  Model m;
  const auto x = m.add_variable(0.0, 10.0, 1.0);
  const auto y = m.add_variable(0.0, 10.0, 1.0);
  // An explicit zero coefficient and a pair that cancels to zero must both
  // vanish from the stored row (and from the column view / nnz count).
  const auto r = m.add_constraint({{x, 0.0}, {y, 2.0}, {x, 1.0}, {x, -1.0}},
                                  0.0, 5.0);
  ASSERT_EQ(m.row(r).size(), 1u);
  EXPECT_EQ(m.row(r)[0].first, y);
  EXPECT_DOUBLE_EQ(m.row(r)[0].second, 2.0);
  EXPECT_TRUE(m.col(x).empty());
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(LpModel, ColumnViewTracksAppendedRows) {
  Model m;
  const auto x = m.add_variable(0.0, 1.0, 1.0);
  const auto y = m.add_variable(0.0, 1.0, 1.0);
  const auto r0 = m.add_constraint({{x, 1.0}, {y, 2.0}}, 0.0, 3.0);
  const auto r1 = m.add_constraint({{y, -1.0}}, -kInf, 0.0);
  const auto r2 = m.add_constraint({{x, 4.0}}, 0.0, kInf);
  // Each column lists its rows in append order with the merged values —
  // the invariant the simplex CSC build relies on after OA-row appends.
  ASSERT_EQ(m.col(x).size(), 2u);
  EXPECT_EQ(m.col(x)[0].index, r0);
  EXPECT_DOUBLE_EQ(m.col(x)[0].value, 1.0);
  EXPECT_EQ(m.col(x)[1].index, r2);
  EXPECT_DOUBLE_EQ(m.col(x)[1].value, 4.0);
  ASSERT_EQ(m.col(y).size(), 2u);
  EXPECT_EQ(m.col(y)[0].index, r0);
  EXPECT_EQ(m.col(y)[1].index, r1);
  EXPECT_DOUBLE_EQ(m.col(y)[1].value, -1.0);
  EXPECT_EQ(m.nnz(), 4u);
}

TEST(LpModel, ConstraintRejectsUnknownColumn) {
  Model m;
  EXPECT_THROW(m.add_constraint({{5, 1.0}}, 0.0, 1.0), ContractViolation);
}

TEST(LpModel, RowActivity) {
  Model m;
  const auto x = m.add_variable(0.0, 10.0, 0.0);
  const auto y = m.add_variable(0.0, 10.0, 0.0);
  const auto r = m.add_constraint({{x, 2.0}, {y, -1.0}}, -kInf, 4.0);
  const std::vector<double> point{3.0, 1.0};
  EXPECT_DOUBLE_EQ(m.row_activity(r, point), 5.0);
}

TEST(LpModel, FeasibilityCheck) {
  Model m;
  const auto x = m.add_variable(0.0, 2.0, 0.0);
  m.add_constraint({{x, 1.0}}, 0.5, 1.5);
  EXPECT_TRUE(m.is_feasible(std::vector<double>{1.0}));
  EXPECT_FALSE(m.is_feasible(std::vector<double>{1.9}));   // row violated
  EXPECT_FALSE(m.is_feasible(std::vector<double>{-0.5}));  // bound violated
}

TEST(LpModel, BoundMutation) {
  Model m;
  const auto x = m.add_variable(0.0, 5.0, 1.0);
  m.set_col_lower(x, 2.0);
  m.set_col_upper(x, 3.0);
  EXPECT_DOUBLE_EQ(m.col_lower(x), 2.0);
  EXPECT_DOUBLE_EQ(m.col_upper(x), 3.0);
}

TEST(LpModel, EqualityHelper) {
  Model m;
  const auto x = m.add_variable(0.0, 5.0, 1.0);
  const auto r = m.add_equality({{x, 1.0}}, 2.5);
  EXPECT_DOUBLE_EQ(m.row_lower(r), 2.5);
  EXPECT_DOUBLE_EQ(m.row_upper(r), 2.5);
}

TEST(LpModel, ConstraintSortsColumnsAndSumsDuplicatesInTheOrderGiven) {
  Model m;
  const auto x = m.add_variable(0.0, 10.0, 1.0);
  const auto y = m.add_variable(0.0, 10.0, 1.0);
  // x's entries sum left to right: 1e16 + 1 rounds back to 1e16, so the
  // three cancel exactly and x leaves the row.
  const auto r = m.add_constraint(
      {{y, 0.5}, {x, 1e16}, {x, 1.0}, {y, 0.25}, {x, -1e16}}, 0.0, 5.0);
  ASSERT_EQ(m.row(r).size(), 1u);
  EXPECT_EQ(m.row(r)[0].first, y);
  EXPECT_EQ(m.row(r)[0].second, 0.75);
  const auto r2 = m.add_constraint({{y, 2.0}, {x, 1.0}}, 0.0, 5.0);
  ASSERT_EQ(m.row(r2).size(), 2u);
  EXPECT_EQ(m.row(r2)[0].first, x);
  EXPECT_EQ(m.row(r2)[1].first, y);
}

}  // namespace
}  // namespace hslb::lp

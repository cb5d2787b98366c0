#include "cesm/finetuning.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace hslb::cesm {
namespace {

std::array<perf::Model, 4> truth() {
  std::array<perf::Model, 4> m;
  for (Component c : kComponents)
    m[index(c)] = ground_truth(Resolution::Deg1, c);
  return m;
}

TEST(FineTuning, SyntheticMinorsAreSmallFractions) {
  const auto models = truth();
  const auto minor = synthetic_minor_components(models, 0.06, 0.12);
  const double atm_t = models[index(Component::Atm)].eval(100.0);
  const double lnd_t = models[index(Component::Lnd)].eval(100.0);
  EXPECT_NEAR(minor.cpl.eval(100.0), 0.06 * atm_t, 1e-9);
  EXPECT_NEAR(minor.rof.eval(100.0), 0.12 * lnd_t, 1e-9);
  EXPECT_TRUE(minor.cpl.is_convex());
  EXPECT_TRUE(minor.rof.is_convex());
}

TEST(FineTuning, FractionsValidated) {
  EXPECT_THROW(synthetic_minor_components(truth(), 0.0, 0.1),
               ContractViolation);
  EXPECT_THROW(synthetic_minor_components(truth(), 0.1, 1.5),
               ContractViolation);
}

TEST(FineTuning, OnlyHybridLayoutSupported) {
  auto p = make_problem(Resolution::Deg1, Layout::FullySequential, 128, truth());
  EXPECT_THROW(build_finetuned_minlp(p, synthetic_minor_components(truth())),
               ContractViolation);
}

TEST(FineTuning, TotalIncludesMinorContributions) {
  const auto models = truth();
  const auto p = make_problem(Resolution::Deg1, Layout::Hybrid, 128, models);
  const auto minor = synthetic_minor_components(models);
  const std::array<long long, 4> nodes{24, 80, 104, 24};
  const double plain = layout_total(
      Layout::Hybrid,
      {models[0].eval(24.0), models[1].eval(80.0), models[2].eval(104.0),
       models[3].eval(24.0)});
  const double tuned = finetuned_total(p, minor, nodes);
  EXPECT_GT(tuned, plain);  // the extra work cannot make the run faster
}

TEST(FineTuning, SolveMatchesSemanticFormula) {
  const auto models = truth();
  const auto p = make_problem(Resolution::Deg1, Layout::Hybrid, 256, models);
  const auto minor = synthetic_minor_components(models);
  const auto sol = solve_finetuned(p, minor);
  ASSERT_EQ(sol.stats.status, minlp::BnbStatus::Optimal);
  EXPECT_EQ(sol.predicted_total, finetuned_total(p, minor, sol.nodes));
}

TEST(FineTuning, OptimumAtLeastPlainOptimum) {
  // Adding work can only increase the optimal total.
  const auto models = truth();
  const auto p = make_problem(Resolution::Deg1, Layout::Hybrid, 512, models);
  const auto plain = solve_layout(p);
  const auto tuned = solve_finetuned(p, synthetic_minor_components(models));
  EXPECT_GE(tuned.predicted_total, plain.predicted_total - 1e-6);
}

TEST(FineTuning, ReoptimizationHelpsOrTies) {
  // The 6-component optimum evaluated under 6-component semantics is no
  // worse than the 4-component optimum's allocation under the same
  // semantics.
  const auto models = truth();
  const auto p = make_problem(Resolution::Deg1, Layout::Hybrid, 512, models);
  const auto minor = synthetic_minor_components(models);
  const auto plain = solve_layout(p);
  const auto tuned = solve_finetuned(p, minor);
  EXPECT_LE(finetuned_total(p, minor, tuned.nodes),
            finetuned_total(p, minor, plain.nodes) * 1.001);
}

}  // namespace
}  // namespace hslb::cesm

// Parity sweep guarding the cost model: with the power law alone (every
// model without pinned machine charges), fits, greedy objectives,
// branch-and-bound node/cut counts, and the full FMO pipeline must equal
// the captured behaviour bit for bit. The solver values were captured from
// the seed implementation (hard-coded perf::Model paths), the fit values
// from the variable-projection perf::fit; all are compared with exact
// double equality — any drift in the float operation sequence fails this
// test.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fmo/cost.hpp"
#include "fmo/driver.hpp"
#include "fmo/molecule.hpp"
#include "hslb/budget.hpp"
#include "minlp/bnb.hpp"
#include "perf/fit.hpp"
#include "sim/noise.hpp"

namespace hslb {
namespace {

perf::SampleSet golden_samples(std::uint64_t seed) {
  const perf::Model truth{5000.0, 2e-4, 1.3, 12.0};
  perf::SampleSet samples;
  for (long long n : {1, 4, 16, 64, 256}) {
    const std::uint64_t key = derive_seed(seed, static_cast<std::uint64_t>(n));
    sim::NoiseModel noise(0.03, key);
    samples.push_back({static_cast<double>(n),
                       noise.perturb(truth.eval(static_cast<double>(n)))});
  }
  return samples;
}

perf::FitResult golden_fit(std::uint64_t seed) {
  return perf::fit(golden_samples(seed));
}

TEST(CostModelParity, FitsAreBitIdenticalToSeed) {
  {
    const auto fit = golden_fit(11);
    EXPECT_EQ(fit.model.a, 4852.9918127067385);
    EXPECT_EQ(fit.model.b, 0.0);
    EXPECT_EQ(fit.model.c, 1.0);
    EXPECT_EQ(fit.model.d, 22.394001553807804);
    EXPECT_EQ(fit.sse, 765.86131668698556);
    EXPECT_EQ(fit.r2, 0.99995431741921603);
  }
  {
    const auto fit = golden_fit(12);
    EXPECT_EQ(fit.model.a, 5039.0752988452232);
    EXPECT_EQ(fit.model.b, 6.3193497770014893e-08);
    EXPECT_EQ(fit.model.c, 3.0);
    EXPECT_EQ(fit.model.d, 13.491358431838965);
    EXPECT_EQ(fit.sse, 903.17159304619463);
    EXPECT_EQ(fit.r2, 0.99995002477933748);
  }
  {
    const auto fit = golden_fit(13);
    EXPECT_EQ(fit.model.a, 5106.4623120064352);
    EXPECT_EQ(fit.model.b, 9.4506900748407592e-07);
    EXPECT_EQ(fit.model.c, 2.8394017399155995);
    EXPECT_EQ(fit.model.d, 6.3015842066647982);
    EXPECT_EQ(fit.sse, 354.90569726655383);
    EXPECT_EQ(fit.r2, 0.99998086100133543);
  }
}

/// A controller refit's sample shape: a gather sweep with two repetitions
/// per node count, plus one task's epoch observations folded in at weight 4,
/// so node counts repeat across gather repetitions and observation replicas.
perf::SampleSet folded_samples() {
  const perf::Model truth{5000.0, 2e-4, 1.3, 12.0};
  perf::SampleSet gathered;
  for (long long n : {1, 4, 16, 64, 256}) {
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      sim::NoiseModel noise(0.03, derive_seed(21 + rep, n));
      gathered.push_back({static_cast<double>(n),
                          noise.perturb(truth.eval(static_cast<double>(n)))});
    }
  }
  // A straggler slowed "t" on the nodes it ran on; "u" is another task.
  const std::vector<perf::Observed> observed{
      {"t", 16.0, 1.5 * truth.eval(16.0), 3},
      {"t", 64.0, 1.3 * truth.eval(64.0), 3},
      {"u", 4.0, 2.0 * truth.eval(4.0), 3},
      {"t", 16.0, 1.4 * truth.eval(16.0), 4}};
  return perf::fold_observations(gathered, observed, "t", 4, 4, 4.0);
}

TEST(CostModelParity, FoldedFitsAreBitIdenticalToSeed) {
  const perf::SampleSet samples = folded_samples();
  ASSERT_EQ(samples.size(), 22u);

  const auto fit = perf::fit(samples);
  EXPECT_EQ(fit.model.a, 5008.6922219188846);
  EXPECT_EQ(fit.model.b, 0.0);
  EXPECT_EQ(fit.model.c, 1.0);
  EXPECT_EQ(fit.model.d, 64.579896225968014);
  EXPECT_EQ(fit.sse, 98225.774611902802);
  EXPECT_EQ(fit.r2, 0.99767265654431403);
}

class SolveParity : public ::testing::Test {
 protected:
  SolveParity()
      : sys_(fmo::water_cluster({.fragments = 12,
                                 .merge_fraction = 0.4,
                                 .scf_cutoff_angstrom = 4.5,
                                 .seed = 3})) {
    for (const auto& f : sys_.fragments)
      tasks_.push_back(BudgetTask{f.name, cost_.monomer(f), 1, kNodes});
  }

  static constexpr long long kNodes = 96;
  fmo::System sys_;
  fmo::CostModel cost_;
  std::vector<BudgetTask> tasks_;
};

TEST_F(SolveParity, GreedyObjectivesMatchSeed) {
  {
    const auto alloc = solve_budget(tasks_, kNodes, Objective::MinMax);
    EXPECT_EQ(alloc.predicted_total, 0.42045591705358792);
    const long long expect[] = {6, 22, 1, 6, 1, 6, 7, 22, 22, 1, 1, 1};
    ASSERT_EQ(alloc.tasks.size(), 12u);
    for (std::size_t f = 0; f < 12; ++f)
      EXPECT_EQ(alloc.tasks[f].nodes, expect[f]) << "fragment " << f;
  }
  {
    const auto alloc = solve_budget(tasks_, kNodes, Objective::MinSum);
    EXPECT_EQ(alloc.predicted_total, 3.4169373140021913);
    const long long expect[] = {8, 16, 3, 8, 3, 8, 9, 16, 16, 3, 3, 3};
    for (std::size_t f = 0; f < 12; ++f)
      EXPECT_EQ(alloc.tasks[f].nodes, expect[f]) << "fragment " << f;
  }
  {
    const auto alloc = solve_budget(tasks_, kNodes, Objective::MaxMin);
    EXPECT_EQ(alloc.predicted_total, 0.30906374999999997);
    const long long expect[] = {6, 22, 1, 6, 1, 6, 7, 22, 22, 1, 1, 1};
    for (std::size_t f = 0; f < 12; ++f)
      EXPECT_EQ(alloc.tasks[f].nodes, expect[f]) << "fragment " << f;
  }
}

TEST_F(SolveParity, BranchAndBoundMatchesSeedForEveryThreadCount) {
  for (std::size_t threads : {1u, 2u, 4u}) {
    const auto model = build_budget_minlp(tasks_, kNodes, Objective::MinMax);
    minlp::BnbOptions opt;
    opt.solver_threads = threads;
    const auto res = minlp::solve(model, opt);
    EXPECT_EQ(res.nodes, 19u) << threads << " threads";
    EXPECT_EQ(res.cuts, 84u) << threads << " threads";
    EXPECT_EQ(res.objective, 0.42045591705358787) << threads << " threads";
    const double expect[] = {7, 22, 1, 6, 1, 6, 6, 22, 22, 1, 1, 1};
    for (std::size_t f = 0; f < 12; ++f)
      EXPECT_EQ(res.x[f], expect[f]) << threads << " threads, fragment " << f;
  }
}

TEST_F(SolveParity, PipelineMatchesSeedEndToEnd) {
  fmo::PipelineOptions popt;
  popt.threads = 1;
  const auto res = fmo::run_pipeline(sys_, cost_, kNodes, popt);
  EXPECT_EQ(res.predicted_scc_seconds, 4.9673020155995058);
  EXPECT_EQ(res.hslb.scc_seconds, 5.0223713458636121);
  const long long expect[] = {6, 20, 1, 6, 1, 6, 6, 27, 20, 1, 1, 1};
  ASSERT_EQ(res.allocation.tasks.size(), 12u);
  for (std::size_t f = 0; f < 12; ++f)
    EXPECT_EQ(res.allocation.tasks[f].nodes, expect[f]) << "fragment " << f;
  EXPECT_EQ(res.fits[0].second.model.a, 2.3674028479539402);
  EXPECT_EQ(res.fits[0].second.model.b, 0.0);
  EXPECT_EQ(res.fits[0].second.model.c, 1.0);
  EXPECT_EQ(res.fits[0].second.model.d, 0.012305643673368382);
  // The compute-only pipeline reports a single powerlaw term row.
  ASSERT_EQ(res.report.terms.size(), 1u);
  EXPECT_EQ(res.report.terms[0].term, "powerlaw");
  EXPECT_GT(res.report.terms[0].actual_seconds, 0.0);
}

}  // namespace
}  // namespace hslb

// Parity sweep guarding the cost-term refactor: with only the power-law
// term registered (the default everywhere), fits, greedy objectives,
// branch-and-bound node/cut counts, and the full FMO pipeline must equal
// the pre-refactor behaviour bit for bit. The expected values below were
// captured from the seed implementation (hard-coded perf::Model paths)
// and are compared with exact double equality — any drift in the float
// operation sequence fails this test.
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
  perf::FitOptions opt;
  opt.seed = seed;
  return perf::fit(golden_samples(seed), opt);
}

TEST(CostModelParity, FitsAreBitIdenticalToSeed) {
  {
    const auto fit = golden_fit(11);
    EXPECT_EQ(fit.model.a, 4852.7227452465531);
    EXPECT_EQ(fit.model.b, 0.0);
    EXPECT_EQ(fit.model.c, 3.0);
    EXPECT_EQ(fit.model.d, 22.561277017195632);
    EXPECT_EQ(fit.sse, 765.95854065305002);
    EXPECT_EQ(fit.r2, 0.99995431161993931);
  }
  {
    const auto fit = golden_fit(12);
    EXPECT_EQ(fit.model.a, 5039.0752858264186);
    EXPECT_EQ(fit.model.b, 6.3192857126433021e-08);
    EXPECT_EQ(fit.model.c, 3.0);
    EXPECT_EQ(fit.model.d, 13.491366531443596);
    EXPECT_EQ(fit.sse, 903.17159304635004);
    EXPECT_EQ(fit.r2, 0.99995002477933748);
  }
  {
    const auto fit = golden_fit(13);
    EXPECT_EQ(fit.model.a, 5106.4623118795407);
    EXPECT_EQ(fit.model.b, 9.4506179119124146e-07);
    EXPECT_EQ(fit.model.c, 2.8394031140555058);
    EXPECT_EQ(fit.model.d, 6.301584311943226);
    EXPECT_EQ(fit.sse, 354.90569726654275);
    EXPECT_EQ(fit.r2, 0.99998086100133543);
  }
}

TEST(CostModelParity, FitCostEqualsClassicFit) {
  // The generic entry point with an explicit single-powerlaw spec must take
  // the exact same path as perf::fit.
  perf::FitOptions opt;
  opt.seed = 11;
  const auto samples = golden_samples(11);
  const auto classic = perf::fit(samples, opt);
  const auto generic =
      perf::fit_cost(samples, {perf::power_law_term()}, opt);
  EXPECT_EQ(generic.model.a, classic.model.a);
  EXPECT_EQ(generic.model.b, classic.model.b);
  EXPECT_EQ(generic.model.c, classic.model.c);
  EXPECT_EQ(generic.model.d, classic.model.d);
  EXPECT_EQ(generic.sse, classic.sse);
  for (double n : {1.0, 4.0, 96.0})
    EXPECT_EQ(generic.cost.eval(n), classic.model.eval(n));
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
  const perf::SampleSet gathered(samples.begin(), samples.begin() + 10);
  perf::FitOptions opt;
  opt.seed = 21;

  const perf::CostModelSpec classic{perf::power_law_term()};
  const auto fit = perf::fit_cost(samples, classic, opt);
  EXPECT_EQ(fit.model.a, 5008.2524159568402);
  EXPECT_EQ(fit.model.b, 0.0);
  EXPECT_EQ(fit.model.c, 1.109327207394424);
  EXPECT_EQ(fit.model.d, 64.579896225968014);
  EXPECT_EQ(fit.sse, 98226.193494209903);
  EXPECT_EQ(fit.r2, 0.99767264661939359);
  // The warm descent from the gather-only fit stalls at the iteration cap,
  // so the refit falls back to the same multistart.
  const auto refit = perf::refit_cost(
      samples, classic, perf::fit_cost(gathered, classic, opt), opt);
  EXPECT_EQ(refit.starts_tried, 24u);
  EXPECT_EQ(refit.model.a, fit.model.a);
  EXPECT_EQ(refit.model.c, fit.model.c);
  EXPECT_EQ(refit.model.d, fit.model.d);
  EXPECT_EQ(refit.sse, fit.sse);

  // Two terms, each evaluated on its own parameter slice; here the warm
  // descent converges.
  const perf::CostModelSpec split{perf::compute_term(), perf::serial_term()};
  const auto split_fit = perf::fit_cost(samples, split, opt);
  EXPECT_EQ(split_fit.cost.params(0)[0], 5005.4203269467198);
  EXPECT_EQ(split_fit.cost.params(0)[1], 0.9594245490058706);
  EXPECT_EQ(split_fit.cost.params(1)[0], 47.894145699330124);
  EXPECT_EQ(split_fit.sse, 87473.474902238682);
  const auto split_refit = perf::refit_cost(
      samples, split, perf::fit_cost(gathered, split, opt), opt);
  EXPECT_EQ(split_refit.starts_tried, 1u);
  EXPECT_EQ(split_refit.cost.params(0)[0], 5005.4203256719684);
  EXPECT_EQ(split_refit.cost.params(0)[1], 0.95942455191427012);
  EXPECT_EQ(split_refit.cost.params(1)[0], 47.894148003759597);
  EXPECT_EQ(split_refit.sse, 87473.474902238697);
  EXPECT_EQ(split_refit.r2, 0.99792741955801112);
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
  EXPECT_EQ(res.predicted_scc_seconds, 4.967302023377937);
  EXPECT_EQ(res.hslb.scc_seconds, 5.0223713458636121);
  const long long expect[] = {6, 20, 1, 6, 1, 6, 6, 27, 20, 1, 1, 1};
  ASSERT_EQ(res.allocation.tasks.size(), 12u);
  for (std::size_t f = 0; f < 12; ++f)
    EXPECT_EQ(res.allocation.tasks[f].nodes, expect[f]) << "fragment " << f;
  EXPECT_EQ(res.fits[0].second.model.a, 2.3673441649649964);
  EXPECT_EQ(res.fits[0].second.model.b, 0.0);
  EXPECT_EQ(res.fits[0].second.model.c, 1.0);
  EXPECT_EQ(res.fits[0].second.model.d, 0.012342379451217734);
  // The compute-only pipeline reports a single powerlaw term row.
  ASSERT_EQ(res.report.terms.size(), 1u);
  EXPECT_EQ(res.report.terms[0].term, "powerlaw");
  EXPECT_GT(res.report.terms[0].actual_seconds, 0.0);
}

}  // namespace
}  // namespace hslb

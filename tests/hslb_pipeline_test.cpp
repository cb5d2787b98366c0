// The substrate-agnostic pipeline engine: orchestration parity with the
// hand-wired Gather -> Fit -> Solve -> Execute sequence, determinism across
// thread counts, and report instrumentation.
#include "hslb/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "hslb/budget.hpp"
#include "sim/noise.hpp"

namespace hslb {
namespace {

// A minimal two-task substrate over known ground-truth models with
// order-independent probe noise — small enough that the expected result of
// every stage can be recomputed by hand in the tests.
class ToyApp : public Application {
 public:
  static constexpr long long kNodes = 64;
  static constexpr std::uint64_t kSeed = 7;

  std::string name() const override { return "toy"; }

  GatherPlan gather_plan() override {
    return {{"heavy", geometric_node_counts(1, kNodes, 5)},
            {"light", geometric_node_counts(1, kNodes, 4)}};
  }

  double probe(const std::string& task, long long n,
               std::uint64_t rep) override {
    ++probe_calls;
    const std::size_t t = task == "heavy" ? 0 : 1;
    sim::NoiseModel noise(
        0.02, derive_seed(derive_seed(kSeed, t),
                          static_cast<std::uint64_t>(n) * 4096 + rep));
    return noise.perturb(truth(t).eval(static_cast<double>(n)));
  }

  SolveOutcome solve(const std::vector<std::pair<std::string, perf::FitResult>>&
                         fits) override {
    std::vector<BudgetTask> tasks;
    for (const auto& [name, fit] : fits)
      tasks.push_back({name, fit.model, 1, kNodes});
    SolveOutcome out;
    out.allocation = solve_min_max(tasks, kNodes);
    out.solver.status = "exact greedy";
    return out;
  }

  double execute(const SolveOutcome& solution) override {
    executed_allocation = solution.allocation;
    double worst = 0.0;
    for (std::size_t t = 0; t < 2; ++t) {
      const auto& a =
          solution.allocation.find(t == 0 ? "heavy" : "light");
      worst = std::max(worst, truth(t).eval(static_cast<double>(a.nodes)));
    }
    return worst;
  }

  static perf::Model truth(std::size_t t) {
    return t == 0 ? perf::Model{2400.0, 0.0, 1.0, 6.0}
                  : perf::Model{300.0, 0.0, 1.0, 1.5};
  }

  std::atomic<std::size_t> probe_calls{0};
  Allocation executed_allocation;
};

TEST(PipelineEngine, RunsAllFourStages) {
  ToyApp app;
  PipelineOptions opt;
  opt.gather_repetitions = 2;
  const auto run = Pipeline(opt).run(app);

  // Gather: plan order preserved, every (count, rep) probed.
  ASSERT_EQ(run.bench.tasks.size(), 2u);
  EXPECT_EQ(run.bench.tasks[0].task, "heavy");
  EXPECT_EQ(run.bench.tasks[1].task, "light");
  const std::size_t expected_probes =
      2 * (geometric_node_counts(1, ToyApp::kNodes, 5).size() +
           geometric_node_counts(1, ToyApp::kNodes, 4).size());
  EXPECT_EQ(app.probe_calls.load(), expected_probes);
  EXPECT_EQ(run.report.probes, expected_probes);

  // Fit: one result per task, in plan order, high quality.
  ASSERT_EQ(run.fits.size(), 2u);
  EXPECT_EQ(run.fits[0].first, "heavy");
  EXPECT_GT(run.fits[0].second.r2, 0.99);

  // Solve: the allocation reached Execute unchanged.
  EXPECT_EQ(app.executed_allocation.find("heavy").nodes,
            run.solution.allocation.find("heavy").nodes);
  EXPECT_LE(run.solution.allocation.total_nodes(), ToyApp::kNodes);

  // Execute: actual recorded.
  EXPECT_GT(run.actual_total, 0.0);
  EXPECT_EQ(run.report.actual_total, run.actual_total);
}

TEST(PipelineEngine, ParityWithHandWiredOrchestration) {
  // The engine must produce exactly what the four steps produce when wired
  // by hand from the same primitives — the refactor's no-semantic-change
  // guarantee.
  ToyApp engine_app;
  const auto run = Pipeline().run(engine_app);

  ToyApp manual;
  GatherOptions gopt;
  const auto bench = gather(
      manual.gather_plan(),
      [&](const std::string& task, long long n, std::uint64_t rep) {
        return manual.probe(task, n, rep);
      },
      gopt);
  const auto fits = perf::fit_all(bench, manual.fit_options());
  const auto solution = manual.solve(fits);
  const double actual = manual.execute(solution);

  ASSERT_EQ(run.bench.tasks.size(), bench.tasks.size());
  for (std::size_t t = 0; t < bench.tasks.size(); ++t) {
    ASSERT_EQ(run.bench.tasks[t].samples.size(),
              bench.tasks[t].samples.size());
    for (std::size_t i = 0; i < bench.tasks[t].samples.size(); ++i) {
      EXPECT_DOUBLE_EQ(run.bench.tasks[t].samples[i].seconds,
                       bench.tasks[t].samples[i].seconds);
    }
  }
  for (std::size_t i = 0; i < fits.size(); ++i) {
    EXPECT_DOUBLE_EQ(run.fits[i].second.model.a, fits[i].second.model.a);
    EXPECT_DOUBLE_EQ(run.fits[i].second.r2, fits[i].second.r2);
  }
  for (const auto& t : solution.allocation.tasks)
    EXPECT_EQ(run.solution.allocation.find(t.task).nodes, t.nodes);
  EXPECT_DOUBLE_EQ(run.solution.allocation.predicted_total,
                   solution.allocation.predicted_total);
  EXPECT_DOUBLE_EQ(run.actual_total, actual);
}

TEST(PipelineEngine, IdenticalAcrossThreadCounts) {
  PipelineRun runs[3];
  const std::size_t threads[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    ToyApp app;
    PipelineOptions opt;
    opt.threads = threads[i];
    runs[i] = Pipeline(opt).run(app);
  }
  for (int i = 1; i < 3; ++i) {
    for (std::size_t t = 0; t < runs[0].bench.tasks.size(); ++t) {
      for (std::size_t s = 0; s < runs[0].bench.tasks[t].samples.size(); ++s) {
        EXPECT_DOUBLE_EQ(runs[i].bench.tasks[t].samples[s].seconds,
                         runs[0].bench.tasks[t].samples[s].seconds);
      }
    }
    for (const auto& t : runs[0].solution.allocation.tasks)
      EXPECT_EQ(runs[i].solution.allocation.find(t.task).nodes, t.nodes);
    EXPECT_DOUBLE_EQ(runs[i].solution.predicted_total,
                     runs[0].solution.predicted_total);
    EXPECT_DOUBLE_EQ(runs[i].actual_total, runs[0].actual_total);
  }
}

TEST(PipelineEngine, ReportCarriesInstrumentation) {
  ToyApp app;
  PipelineOptions opt;
  opt.threads = 2;
  const auto run = Pipeline(opt).run(app);
  const auto& r = run.report;

  EXPECT_EQ(r.application, "toy");
  EXPECT_EQ(r.threads, 2u);
  EXPECT_GE(r.gather_seconds, 0.0);
  EXPECT_GE(r.fit_seconds, 0.0);
  EXPECT_GE(r.solve_seconds, 0.0);
  EXPECT_GE(r.execute_seconds, 0.0);
  EXPECT_NEAR(r.total_seconds(), r.gather_seconds + r.fit_seconds +
                                     r.solve_seconds + r.execute_seconds,
              1e-12);
  ASSERT_EQ(r.fits.size(), 2u);
  EXPECT_GT(r.min_r2(), 0.99);
  EXPECT_GE(r.mean_r2(), r.min_r2());
  EXPECT_EQ(r.solver.status, "exact greedy");
  EXPECT_GT(r.predicted_total, 0.0);
  EXPECT_GT(r.actual_total, 0.0);
  EXPECT_NEAR(r.prediction_error(),
              (r.actual_total - r.predicted_total) / r.predicted_total, 1e-12);

  // Printable and CSV-dumpable.
  const auto text = r.str();
  EXPECT_NE(text.find("toy"), std::string::npos);
  EXPECT_NE(text.find("gather"), std::string::npos);
  const auto row = r.csv_row();
  const auto header = PipelineReport::csv_header();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(header.begin(), header.end(), ',')),
            static_cast<std::size_t>(std::count(row.begin(), row.end(), ',')));
  // The solver-reduction counters are part of the CSV contract.
  for (const char* col :
       {"solver_presolve_rows", "solver_presolve_cols",
        "solver_bounds_tightened", "solver_nodes_propagated_infeasible",
        "solver_cuts_retired", "solver_cuts_reactivated"}) {
    EXPECT_NE(header.find(col), std::string::npos) << col;
  }
}

TEST(PipelineEngine, DefaultPredictedTotalFallsBackToAllocation) {
  // Apps that leave SolveOutcome::predicted_total at 0 report the
  // allocation's predicted total.
  ToyApp app;
  const auto run = Pipeline().run(app);
  EXPECT_DOUBLE_EQ(run.solution.predicted_total,
                   run.solution.allocation.predicted_total);
  EXPECT_DOUBLE_EQ(run.report.predicted_total,
                   run.solution.allocation.predicted_total);
}

TEST(PipelineEngine, SharedPoolMatchesOwnedPool) {
  // The shared-pool overload is the same engine: identical results, and the
  // report names the pool's size rather than options_.threads.
  ToyApp owned_app;
  PipelineOptions opt;
  opt.threads = 3;
  const auto owned = Pipeline(opt).run(owned_app);

  ToyApp shared_app;
  ThreadPool pool(3);
  const auto shared = Pipeline(opt).run(shared_app, pool);

  EXPECT_EQ(shared.report.threads, 3u);
  ASSERT_EQ(shared.bench.tasks.size(), owned.bench.tasks.size());
  for (std::size_t t = 0; t < owned.bench.tasks.size(); ++t) {
    for (std::size_t s = 0; s < owned.bench.tasks[t].samples.size(); ++s) {
      EXPECT_DOUBLE_EQ(shared.bench.tasks[t].samples[s].seconds,
                       owned.bench.tasks[t].samples[s].seconds);
    }
  }
  for (const auto& t : owned.solution.allocation.tasks)
    EXPECT_EQ(shared.solution.allocation.find(t.task).nodes, t.nodes);
  EXPECT_DOUBLE_EQ(shared.actual_total, owned.actual_total);
}

TEST(PipelineEngine, InterleavedRunsOnSharedPoolMatchSequential) {
  // The concurrent-reuse guarantee the allocation service depends on: two
  // pipelines racing on one pool must each produce exactly the run they
  // produce alone.
  PipelineOptions opt;
  opt.threads = 4;
  opt.gather_repetitions = 2;
  const Pipeline pipeline(opt);

  ToyApp seq_a, seq_b;
  const auto expect_a = pipeline.run(seq_a);
  const auto expect_b = pipeline.run(seq_b);

  ThreadPool pool(4);
  ToyApp par_a, par_b;
  PipelineRun got_a, got_b;
  std::thread ta([&] { got_a = pipeline.run(par_a, pool); });
  std::thread tb([&] { got_b = pipeline.run(par_b, pool); });
  ta.join();
  tb.join();

  auto expect_same = [](const PipelineRun& got, const PipelineRun& want) {
    ASSERT_EQ(got.bench.tasks.size(), want.bench.tasks.size());
    for (std::size_t t = 0; t < want.bench.tasks.size(); ++t) {
      ASSERT_EQ(got.bench.tasks[t].samples.size(),
                want.bench.tasks[t].samples.size());
      for (std::size_t s = 0; s < want.bench.tasks[t].samples.size(); ++s) {
        EXPECT_DOUBLE_EQ(got.bench.tasks[t].samples[s].seconds,
                         want.bench.tasks[t].samples[s].seconds);
      }
    }
    ASSERT_EQ(got.fits.size(), want.fits.size());
    for (std::size_t i = 0; i < want.fits.size(); ++i) {
      EXPECT_DOUBLE_EQ(got.fits[i].second.model.a, want.fits[i].second.model.a);
      EXPECT_DOUBLE_EQ(got.fits[i].second.r2, want.fits[i].second.r2);
    }
    for (const auto& t : want.solution.allocation.tasks)
      EXPECT_EQ(got.solution.allocation.find(t.task).nodes, t.nodes);
    EXPECT_DOUBLE_EQ(got.solution.predicted_total, want.solution.predicted_total);
    EXPECT_DOUBLE_EQ(got.actual_total, want.actual_total);
  };
  expect_same(got_a, expect_a);
  expect_same(got_b, expect_b);
}

// Execute's default is the epoch loop with no controller. An application
// that implements neither the epoch hooks nor execute() is rejected by that
// default's precondition instead of looping on the default execute_epoch.
TEST(PipelineEngine, ApplicationWithoutAnExecutePathIsRejected) {
  class NoExecuteApp final : public Application {
   public:
    std::string name() const override { return "no-execute"; }
    GatherPlan gather_plan() override { return toy_.gather_plan(); }
    double probe(const std::string& task, long long n,
                 std::uint64_t rep) override {
      return toy_.probe(task, n, rep);
    }
    SolveOutcome solve(
        const std::vector<std::pair<std::string, perf::FitResult>>& fits)
        override {
      return toy_.solve(fits);
    }

   private:
    ToyApp toy_;
  } app;
  EXPECT_THROW(Pipeline().run(app), ContractViolation);
}

TEST(PipelineEngine, PropagatesProbeFailure) {
  class FailingApp : public ToyApp {
   public:
    double probe(const std::string& task, long long n,
                 std::uint64_t rep) override {
      if (n > 8) throw std::runtime_error("probe crashed");
      return ToyApp::probe(task, n, rep);
    }
  } app;
  PipelineOptions opt;
  opt.threads = 4;
  EXPECT_THROW(Pipeline(opt).run(app), std::runtime_error);
}

}  // namespace
}  // namespace hslb

// End-to-end pipeline coverage for the FMM tree substrate: registry-built
// runs through all four HSLB steps, thread-count invariance, the PR 8
// epoch path (untriggered adaptive bit-identity, straggler and fail-stop
// recovery), and the HSLB-vs-DLB baseline bound.
#include <gtest/gtest.h>

#include <stdexcept>

#include "fmm/workload.hpp"
#include "hslb/pipeline.hpp"
#include "hslb/registry.hpp"
#include "pinned_run.hpp"
#include "substrates/registry_builtins.hpp"

namespace hslb {
namespace {

ScenarioSpec base_spec(const std::string& variant = "adaptive") {
  substrates::register_builtin_substrates();
  ScenarioSpec spec;
  spec.substrate = "fmm";
  spec.variant = variant;
  spec.tasks = 6;
  spec.nodes = 30;
  return spec;
}

PipelineRun run_spec(const ScenarioSpec& spec, std::size_t threads = 1) {
  const auto app = SubstrateRegistry::instance().make(spec);
  PipelineOptions opt;
  opt.threads = threads;
  opt.rebalance = spec.rebalance;
  return Pipeline(opt).run(*app);
}

TEST(FmmPipeline, FullPipelineEndToEnd) {
  const auto spec = base_spec();
  const auto run = run_spec(spec);

  EXPECT_EQ(run.report.application, "wave/fmm-adaptive");
  EXPECT_TRUE(run.report.exec_completed);
  EXPECT_GT(run.report.actual_total, 0.0);
  EXPECT_GT(run.report.predicted_total, 0.0);
  ASSERT_EQ(run.report.fits.size(), 6u);
  for (const auto& f : run.report.fits) EXPECT_GT(f.r2, 0.9);
  EXPECT_FALSE(run.trace.events.empty());

  // Every task got at least one node and the allocation fits the budget.
  long long used = 0;
  ASSERT_EQ(run.solution.allocation.tasks.size(), 6u);
  for (const auto& t : run.solution.allocation.tasks) {
    EXPECT_GE(t.nodes, 1);
    used += t.nodes;
  }
  EXPECT_LE(used, spec.nodes);

  // The shared optimal-LB metrics are populated.
  EXPECT_GT(run.report.exec.makespan, 0.0);
  EXPECT_GT(run.report.exec.efficiency, 0.0);
  EXPECT_LE(run.report.exec.efficiency, 1.0);
}

TEST(FmmPipeline, UniformVariantRunsToo) {
  const auto run = run_spec(base_spec("uniform"));
  EXPECT_TRUE(run.report.exec_completed);
  EXPECT_EQ(run.report.application, "wave/fmm-uniform");
}

TEST(FmmPipeline, ThreadCountInvariance) {
  const auto spec = base_spec();
  const auto solo = run_spec(spec, 1);
  const auto pooled = run_spec(spec, 4);
  EXPECT_EQ(solo.trace.to_csv(), pooled.trace.to_csv());
  EXPECT_EQ(solo.report.actual_total, pooled.report.actual_total);
  EXPECT_EQ(solo.report.predicted_total, pooled.report.predicted_total);
  ASSERT_EQ(solo.solution.allocation.tasks.size(),
            pooled.solution.allocation.tasks.size());
  for (std::size_t i = 0; i < solo.solution.allocation.tasks.size(); ++i)
    EXPECT_EQ(solo.solution.allocation.tasks[i].nodes,
              pooled.solution.allocation.tasks[i].nodes);
}

TEST(FmmPipeline, UntriggeredAdaptiveIsBitIdenticalToStatic) {
  const auto spec = base_spec();
  const auto fixed = run_spec(spec);

  auto adaptive_spec = spec;
  adaptive_spec.rebalance.adaptive = true;
  // Thresholds no clean run reaches: the monitor arms but never trips.
  adaptive_spec.rebalance.imbalance_threshold = 1e9;
  adaptive_spec.rebalance.drift_threshold = 1e9;
  const auto adaptive = run_spec(adaptive_spec);

  EXPECT_EQ(adaptive.report.rebalances, 0u);
  EXPECT_EQ(adaptive.trace.to_csv(), fixed.trace.to_csv());
  EXPECT_EQ(adaptive.report.actual_total, fixed.report.actual_total);
  EXPECT_EQ(adaptive.report.exec.makespan, fixed.report.exec.makespan);
}

TEST(FmmPipeline, AdaptiveRunRidesOutStragglers) {
  auto spec = base_spec();
  spec.straggler_cv = 0.4;
  spec.rebalance.adaptive = true;
  const auto run = run_spec(spec);
  EXPECT_TRUE(run.report.exec_completed);
  EXPECT_GT(run.report.actual_total, 0.0);
  EXPECT_GE(run.report.epochs, 1u);
}

TEST(FmmPipeline, AdaptiveRunRecoversFromFailStop) {
  auto spec = base_spec();
  spec.rebalance.adaptive = true;
  spec.fail_node = 0;
  spec.fail_time = 0.5;
  const auto run = run_spec(spec);

  // The fail-stop aborts at least one wave attempt; the controller
  // reallocates over the surviving segment and the run completes.
  EXPECT_TRUE(run.report.exec_completed);
  EXPECT_GE(run.report.exec_restarts, 1u);
  EXPECT_GE(run.report.rebalances, 1u);
  EXPECT_GE(run.report.epochs, 2u);
}

TEST(FmmPipeline, StaticRunCannotSurviveFailStop) {
  auto spec = base_spec();
  spec.fail_node = 0;
  spec.fail_time = 0.5;
  const auto run = run_spec(spec);
  EXPECT_FALSE(run.report.exec_completed);
}

TEST(FmmPipeline, HslbDoesNotLoseBadlyToDlb) {
  const auto spec = base_spec();
  const auto app = SubstrateRegistry::instance().make(spec);
  PipelineOptions opt;
  opt.threads = 1;
  Pipeline(opt).run(*app);
  auto* baseline = dynamic_cast<BaselineReporter*>(app.get());
  ASSERT_NE(baseline, nullptr);
  EXPECT_GT(baseline->hslb_total_seconds(), 0.0);
  // Same bound the CI scenario fuzzer gates on.
  EXPECT_LE(baseline->hslb_total_seconds(),
            baseline->dlb_total_seconds() * 1.3);
}

TEST(FmmWorkload, VariantsAndValidation) {
  fmm::TreeOptions opt;
  opt.tasks = 5;
  opt.variant = "uniform";
  const auto uniform = fmm::tree_workload(opt);
  ASSERT_EQ(uniform.tasks.size(), 5u);
  EXPECT_EQ(uniform.name, "fmm-uniform");

  opt.variant = "adaptive";
  const auto adaptive = fmm::tree_workload(opt);
  ASSERT_EQ(adaptive.tasks.size(), 5u);

  // Adaptive depths are seed-deterministic.
  const auto again = fmm::tree_workload(opt);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(adaptive.tasks[i].name, again.tasks[i].name);
    EXPECT_EQ(adaptive.tasks[i].memory_gb, again.tasks[i].memory_gb);
  }

  opt.variant = "fractal";
  EXPECT_THROW(fmm::tree_workload(opt), std::invalid_argument);
}

// The Solve is the convex greedy proved by certificate: the report's
// solver row says so and carries no tree or LP counters (CESM, which still
// branches, carries those).
TEST(FmmPipeline, ReportShowsCertifiedSolve) {
  const auto run = run_spec(base_spec());
  EXPECT_TRUE(run.report.solver.certified);
  EXPECT_EQ(run.report.solver.status, "optimal");
  EXPECT_EQ(run.report.solver.nodes, 0u);
  EXPECT_EQ(run.report.solver.lp_solves, 0u);
  EXPECT_NE(run.report.str().find("(optimal, greedy certified: 0 nodes"),
            std::string::npos);
}

// Triggered and static runs, pinned to captured values. The wave engine's static path has no independent reference, so
// it is pinned too. Every Solve and re-solve is certified, so no tree runs.
TEST(FmmPipeline, PinnedStaticRun) {
  auto spec = base_spec();
  const pinning::Pinned want{0, 0, 56, 0,
                             {},
                             {1, 5, 5, 1, 12, 6},
                             3627.9960362371557,
                             0x9330c9c07040fa6eull};
  pinning::expect_pinned("fmm_static",
                         [&] {
                           return SubstrateRegistry::instance().make(spec);
                         },
                         spec.rebalance, want);
}

TEST(FmmPipeline, PinnedFailStopRun) {
  auto spec = base_spec();
  spec.rebalance.adaptive = true;
  spec.fail_node = 0;
  spec.fail_time = 0.5;
  const pinning::Pinned want{1, 1, 57, 0,
                             {0, 0, 0, 0, 0, 0, 0, 0},
                             {1, 5, 5, 1, 11, 6},
                             3646.6787473661834,
                             0x6fd2db484e3b452eull};
  pinning::expect_pinned("fmm_failstop",
                         [&] {
                           return SubstrateRegistry::instance().make(spec);
                         },
                         spec.rebalance, want);
}

}  // namespace
}  // namespace hslb

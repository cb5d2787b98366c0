// End-to-end pipeline coverage for the AMReX mesh+particle substrate:
// registry-built runs, thread invariance, the machine-extended path (comm
// and memory cost terms on a bandwidth/memory-limited machine), and the
// adaptive epoch path.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "amrex/workload.hpp"
#include "hslb/pipeline.hpp"
#include "hslb/registry.hpp"
#include "pinned_run.hpp"
#include "substrates/registry_builtins.hpp"

namespace hslb {
namespace {

ScenarioSpec base_spec(const std::string& variant = "clustered") {
  substrates::register_builtin_substrates();
  ScenarioSpec spec;
  spec.substrate = "amrex";
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

TEST(AmrexPipeline, FullPipelineEndToEnd) {
  const auto run = run_spec(base_spec());
  EXPECT_EQ(run.report.application, "wave/amrex-clustered");
  EXPECT_TRUE(run.report.exec_completed);
  EXPECT_GT(run.report.actual_total, 0.0);
  ASSERT_EQ(run.report.fits.size(), 6u);
  for (const auto& f : run.report.fits) EXPECT_GT(f.r2, 0.9);
  EXPECT_FALSE(run.trace.events.empty());
  EXPECT_GT(run.report.exec.makespan, 0.0);
  EXPECT_GT(run.report.exec.efficiency, 0.0);
}

TEST(AmrexPipeline, ClusteredBlocksAreImbalanced) {
  // The clustered particle draw concentrates load in a few blocks — that
  // is the scenario HSLB exists for, so the min-max allocation must give
  // the heavy blocks more nodes than the light ones.
  const auto run = run_spec(base_spec());
  long long min_nodes = run.solution.allocation.tasks.front().nodes;
  long long max_nodes = min_nodes;
  for (const auto& t : run.solution.allocation.tasks) {
    min_nodes = std::min(min_nodes, t.nodes);
    max_nodes = std::max(max_nodes, t.nodes);
  }
  EXPECT_GT(max_nodes, min_nodes);
}

TEST(AmrexPipeline, ThreadCountInvariance) {
  const auto spec = base_spec();
  const auto solo = run_spec(spec, 1);
  const auto pooled = run_spec(spec, 4);
  EXPECT_EQ(solo.trace.to_csv(), pooled.trace.to_csv());
  EXPECT_EQ(solo.report.actual_total, pooled.report.actual_total);
}

TEST(AmrexPipeline, MemoryLimitedMachineShapesTheAllocation) {
  auto spec = base_spec();
  spec.link_gb_per_s = 10.0;
  spec.memory_gb_per_node = 0.01;  // per-block working sets reach ~0.04 GB
  spec.page_s_per_gb = 1.0;
  const auto run = run_spec(spec);
  EXPECT_TRUE(run.report.exec_completed);

  // Execution time is term-attributed on the extended machine. The wave
  // model carries no halo traffic, so the comm term is reported but zero;
  // the memory term is what binds here.
  EXPECT_GT(run.report.term_actual("powerlaw"), 0.0);
  bool has_comm = false, has_memory = false;
  for (const auto& t : run.report.terms) {
    has_comm = has_comm || t.term == "comm";
    has_memory = has_memory || t.term == "memory";
  }
  EXPECT_TRUE(has_comm);
  EXPECT_TRUE(has_memory);

  // The memory knapsack forces every block onto enough nodes that its
  // working set fits without paging.
  amrex::MeshOptions mesh;
  mesh.blocks = 6;
  mesh.variant = "clustered";
  const auto wl = amrex::mesh_workload(mesh);
  ASSERT_EQ(run.solution.allocation.tasks.size(), wl.tasks.size());
  for (std::size_t i = 0; i < wl.tasks.size(); ++i) {
    const double demand_per_node =
        wl.tasks[i].memory_gb /
        static_cast<double>(run.solution.allocation.tasks[i].nodes);
    EXPECT_LE(demand_per_node, spec.memory_gb_per_node + 1e-12)
        << wl.tasks[i].name;
  }
}

TEST(AmrexPipeline, UntriggeredAdaptiveIsBitIdenticalToStatic) {
  const auto spec = base_spec();
  const auto fixed = run_spec(spec);

  auto adaptive_spec = spec;
  adaptive_spec.rebalance.adaptive = true;
  adaptive_spec.rebalance.imbalance_threshold = 1e9;
  adaptive_spec.rebalance.drift_threshold = 1e9;
  const auto adaptive = run_spec(adaptive_spec);

  EXPECT_EQ(adaptive.report.rebalances, 0u);
  EXPECT_EQ(adaptive.trace.to_csv(), fixed.trace.to_csv());
  EXPECT_EQ(adaptive.report.actual_total, fixed.report.actual_total);
}

TEST(AmrexPipeline, AdaptiveRunRecoversFromFailStop) {
  auto spec = base_spec();
  spec.rebalance.adaptive = true;
  spec.fail_node = 0;
  spec.fail_time = 0.5;
  const auto run = run_spec(spec);
  EXPECT_TRUE(run.report.exec_completed);
  EXPECT_GE(run.report.exec_restarts, 1u);
  EXPECT_GE(run.report.rebalances, 1u);
}

TEST(AmrexPipeline, SolveIsCertified) {
  const auto run = run_spec(base_spec());
  EXPECT_TRUE(run.report.exec_completed);
  // The convex min-max greedy is proved by certificate: no tree runs.
  EXPECT_TRUE(run.report.solver.certified);
  EXPECT_EQ(run.report.solver.status, "optimal");
  EXPECT_EQ(run.report.solver.nodes, 0u);
}

TEST(AmrexWorkload, VariantsAndValidation) {
  amrex::MeshOptions opt;
  opt.blocks = 5;
  opt.variant = "uniform";
  const auto uniform = amrex::mesh_workload(opt);
  ASSERT_EQ(uniform.tasks.size(), 5u);
  EXPECT_EQ(uniform.name, "amrex-uniform");

  opt.variant = "clustered";
  const auto clustered = amrex::mesh_workload(opt);
  ASSERT_EQ(clustered.tasks.size(), 5u);
  const auto again = amrex::mesh_workload(opt);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(clustered.tasks[i].memory_gb, again.tasks[i].memory_gb);

  opt.variant = "refined";
  EXPECT_THROW(amrex::mesh_workload(opt), std::invalid_argument);
}

// Triggered and static runs, pinned to captured values. The wave engine's static path has no independent reference, so
// it is pinned too. Every Solve and re-solve is certified, so no tree runs.
TEST(AmrexPipeline, PinnedStaticRun) {
  auto spec = base_spec();
  const pinning::Pinned want{0, 0, 56, 0,
                             {},
                             {9, 11, 4, 2, 2, 2},
                             0.87333773973160234,
                             0x7c738014149086dbull};
  pinning::expect_pinned("amrex_static",
                         [&] {
                           return SubstrateRegistry::instance().make(spec);
                         },
                         spec.rebalance, want);
}

TEST(AmrexPipeline, PinnedFailStopRun) {
  auto spec = base_spec();
  spec.rebalance.adaptive = true;
  spec.fail_node = 0;
  spec.fail_time = 0.5;
  const pinning::Pinned want{1, 1, 57, 0,
                             {0, 0, 0, 0, 0, 0, 0},
                             {8, 11, 4, 2, 2, 2},
                             0.87539777042456091,
                             0xac036ca2eaaf9f10ull};
  pinning::expect_pinned("amrex_failstop",
                         [&] {
                           return SubstrateRegistry::instance().make(spec);
                         },
                         spec.rebalance, want);
}

}  // namespace
}  // namespace hslb

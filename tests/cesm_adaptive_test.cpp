#include <gtest/gtest.h>

#include <cmath>

#include "cesm/pipeline.hpp"
#include "pinned_run.hpp"

namespace hslb::cesm {
namespace {

// ADPT-C1: an adaptive CESM run whose monitor never trips reproduces the
// static pipeline bit-identically — same coupled trace, same accounting,
// same report columns.
TEST(CesmAdaptive, OneEpochParityWithStatic) {
  PipelineOptions stat;
  PipelineOptions adap = stat;
  adap.rebalance.adaptive = true;
  adap.rebalance.imbalance_threshold = 1e9;  // never trigger
  adap.rebalance.drift_threshold = 1e9;

  const auto a = run_pipeline(Resolution::Deg1, 128, stat);
  const auto b = run_pipeline(Resolution::Deg1, 128, adap);

  EXPECT_EQ(a.coupled.trace.to_csv(), b.coupled.trace.to_csv());
  EXPECT_EQ(a.coupled.total_seconds, b.coupled.total_seconds);
  EXPECT_EQ(a.coupled.coupling_loss_seconds, b.coupled.coupling_loss_seconds);
  EXPECT_EQ(a.coupled.events, b.coupled.events);
  EXPECT_EQ(a.actual_total, b.actual_total);
  for (Component c : kComponents)
    EXPECT_EQ(a.actual_seconds[index(c)], b.actual_seconds[index(c)]);
  EXPECT_EQ(a.solution.nodes, b.solution.nodes);

  EXPECT_EQ(a.report.predicted_total, b.report.predicted_total);
  EXPECT_EQ(a.report.actual_total, b.report.actual_total);
  EXPECT_EQ(a.report.exec.makespan, b.report.exec.makespan);
  EXPECT_EQ(a.report.exec.percent_imbalance, b.report.exec.percent_imbalance);
  EXPECT_EQ(a.report.epochs, 1u);
  EXPECT_EQ(b.report.epochs, 1u);
  EXPECT_EQ(b.report.rebalances, 0u);
  EXPECT_EQ(b.report.migration_seconds, 0.0);
}

// ADPT-C2: parity across every layout (each has a different interval
// graph, so each exercises the chunked builder differently).
TEST(CesmAdaptive, ParityOnEveryLayout) {
  for (Layout layout :
       {Layout::Hybrid, Layout::SequentialAtmGroup, Layout::FullySequential}) {
    PipelineOptions stat;
    stat.layout = layout;
    PipelineOptions adap = stat;
    adap.rebalance.adaptive = true;
    adap.rebalance.imbalance_threshold = 1e9;
    adap.rebalance.drift_threshold = 1e9;
    adap.intervals_per_epoch = 5;  // intervals (24) not divisible by chunk

    const auto a = run_pipeline(Resolution::Deg1, 128, stat);
    const auto b = run_pipeline(Resolution::Deg1, 128, adap);
    EXPECT_EQ(a.coupled.trace.to_csv(), b.coupled.trace.to_csv())
        << "layout " << static_cast<int>(layout);
    EXPECT_EQ(a.actual_total, b.actual_total);
  }
}

// ADPT-C3: a permanent node failure wedges the static coupled run; the
// closed loop re-solves the layout over the surviving segment and
// completes, paying a real migration stall.
TEST(CesmAdaptive, CompletesPermanentFailureStaticCannot) {
  PipelineOptions probe;
  const auto healthy = run_pipeline(Resolution::Deg1, 128, probe);
  ASSERT_TRUE(healthy.coupled.completed);

  PipelineOptions opt;
  opt.fail_node = 0;
  opt.fail_time = 0.3 * healthy.actual_total;
  const auto stat = run_pipeline(Resolution::Deg1, 128, opt);
  EXPECT_FALSE(stat.coupled.completed);

  PipelineOptions adap = opt;
  adap.rebalance.adaptive = true;
  adap.link_gb_per_s = 1.0;
  adap.migrate_gb_per_node = 0.5;
  const auto res = run_pipeline(Resolution::Deg1, 128, adap);
  EXPECT_TRUE(res.coupled.completed);
  EXPECT_GE(res.report.rebalances, 1u);
  EXPECT_GT(res.report.migration_seconds, 0.0);
  EXPECT_GT(res.coupled.restarts, 0u);
}

// ADPT-C4: rebalance decisions are identical across worker-thread counts.
TEST(CesmAdaptive, DecisionsDeterministicAcrossThreads) {
  PipelineOptions probe;
  const auto healthy = run_pipeline(Resolution::Deg1, 128, probe);

  PipelineOptions adap;
  adap.rebalance.adaptive = true;
  adap.fail_node = 0;
  adap.fail_time = 0.3 * healthy.actual_total;
  adap.link_gb_per_s = 1.0;
  adap.migrate_gb_per_node = 0.5;
  adap.threads = 1;
  const auto t1 = run_pipeline(Resolution::Deg1, 128, adap);
  adap.threads = 4;
  const auto t4 = run_pipeline(Resolution::Deg1, 128, adap);
  EXPECT_EQ(t1.coupled.trace.to_csv(), t4.coupled.trace.to_csv());
  EXPECT_EQ(t1.report.rebalances, t4.report.rebalances);
  EXPECT_EQ(t1.report.migration_seconds, t4.report.migration_seconds);
  EXPECT_EQ(t1.coupled.completed, t4.coupled.completed);
}

// ADPT-C5: the fail-stop recovery of ADPT-C3 pinned to captured values —
// rebalances, restarts, trace events, the B&B nodes of every re-solve, the
// final layout, and the makespan.
TEST(CesmAdaptive, PinnedFailStopRun) {
  PipelineOptions opt;
  opt.fail_node = 0;
  opt.fail_time = 0.3 * run_pipeline(Resolution::Deg1, 128, {}).actual_total;
  opt.link_gb_per_s = 1.0;
  opt.migrate_gb_per_node = 0.5;
  RebalancePolicy policy;
  policy.adaptive = true;
  const pinning::Pinned want{1, 1, 98, 9,
                             {5, 7},
                             {14, 91, 105, 22},
                             535.91326602556649};
  pinning::expect_pinned(
      "cesm_failstop",
      [&] { return make_application(Resolution::Deg1, 128, opt); }, policy,
      want);
}

}  // namespace
}  // namespace hslb::cesm

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

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
// final layout, the makespan and the trace digest.
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
                             535.91326602556649,
                             0xbe5c74383ce02506ull};
  pinning::expect_pinned(
      "cesm_failstop",
      [&] { return make_application(Resolution::Deg1, 128, opt); }, policy,
      want);
}

// Static runs (no controller) pinned to captured values: layouts 1-3 at
// 128 nodes with execution noise and stragglers, and layout 1 under a
// transient fail-stop of node 0.
TEST(CesmAdaptive, PinnedStaticRuns) {
  struct Setup {
    std::string name;
    Layout layout;
    long long fail_node;
  };
  const Setup setups[] = {{"layout1", Layout::Hybrid, -1},
                          {"layout2", Layout::SequentialAtmGroup, -1},
                          {"layout3", Layout::FullySequential, -1},
                          {"transient", Layout::Hybrid, 0}};
  const pinning::Pinned want[] = {
      {0, 0, 96, 9, {}, {14, 94, 108, 20}, 793.16800642973067,
       0xc087683492027ee0ull},
      {0, 0, 96, 5, {}, {108, 108, 108, 20}, 794.85872322364264,
       0xfe5b41e1226e196dull},
      {0, 0, 96, 1, {}, {128, 128, 128, 128}, 893.65789063259126,
       0xe59fd514f57d6b3aull},
      {0, 1, 97, 9, {}, {14, 94, 108, 20}, 824.47807501938519,
       0xdf3977a77c84f558ull},
  };
  for (std::size_t s = 0; s < std::size(setups); ++s) {
    PipelineOptions opt;
    opt.layout = setups[s].layout;
    opt.straggler_cv = 0.3;
    opt.fail_node = setups[s].fail_node;
    opt.fail_time = 200.0;
    opt.fail_downtime = 30.0;
    pinning::expect_pinned(
        "cesm_static_" + setups[s].name,
        [&] { return make_application(Resolution::Deg1, 128, opt); },
        RebalancePolicy{}, want[s]);
  }
}

// A static run under a permanent fail-stop stops at the failure pause,
// incomplete: the aborted attempt is the last event and the run ends once
// the surviving nodes' in-flight work is done.
TEST(CesmAdaptive, PinnedStaticFailStopRun) {
  PipelineOptions opt;
  opt.fail_node = 0;
  opt.fail_time = 200.0;
  const pinning::Pinned want{0, 1, 45, 9, {}, {14, 94, 108, 20}, 200.0,
                             0x8caaa30762dc19c0ull};
  pinning::expect_pinned(
      "cesm_static_failstop",
      [&] { return make_application(Resolution::Deg1, 128, opt); },
      RebalancePolicy{}, want);
  const auto res = run_pipeline(Resolution::Deg1, 128, opt);
  EXPECT_FALSE(res.coupled.completed);
  EXPECT_FALSE(res.report.exec_completed);
  ASSERT_FALSE(res.coupled.trace.events.empty());
  EXPECT_TRUE(res.coupled.trace.events.back().aborted);
}

// The coupled run's schedule does not depend on where it is cut into
// chunks: Simulator::run_coupled (one chunk, no controller) equals the
// static pipeline's Execute at every intervals_per_epoch, on every layout,
// with stragglers and no fault, a transient fail-stop, or a permanent one
// (both then stop at the failure pause).
TEST(CesmAdaptive, ChunkSizeInvariance) {
  constexpr double kForever = std::numeric_limits<double>::infinity();
  struct Fault {
    const char* name;
    long long node;
    double downtime;
  };
  const Fault faults[] = {
      {"none", -1, kForever}, {"transient", 0, 30.0}, {"permanent", 0, kForever}};
  for (Layout layout :
       {Layout::Hybrid, Layout::SequentialAtmGroup, Layout::FullySequential}) {
    for (const Fault& fault : faults) {
      PipelineOptions opt;
      opt.layout = layout;
      opt.straggler_cv = 0.3;
      opt.fail_node = fault.node;
      opt.fail_time = 200.0;
      opt.fail_downtime = fault.downtime;
      Simulator::CoupledRun mono;
      for (int chunk : {1, 4, 5, 24}) {
        SCOPED_TRACE(std::string(to_string(layout)) + ", " + fault.name +
                     ", " + std::to_string(chunk) + " intervals per epoch");
        opt.intervals_per_epoch = chunk;
        const auto res = run_pipeline(Resolution::Deg1, 128, opt);
        if (mono.intervals == 0) {
          sim::Perturbation perturb;
          perturb.seed = opt.sim.seed;
          perturb.node_slowdown = sim::Perturbation::stragglers(
              Simulator::machine_for(layout, res.solution.nodes).nodes,
              opt.straggler_cv, opt.sim.seed);
          perturb.fail_node = opt.fail_node;
          perturb.fail_time = opt.fail_time;
          perturb.fail_downtime = opt.fail_downtime;
          mono = Simulator(Resolution::Deg1, opt.sim)
                     .run_coupled(layout, res.solution.nodes,
                                  opt.coupling_intervals, perturb);
          EXPECT_EQ(mono.completed, fault.name != std::string("permanent"));
          if (fault.node >= 0) {
            EXPECT_GT(mono.restarts, 0u);
          }
        }
        EXPECT_EQ(res.coupled.trace.to_csv(), mono.trace.to_csv());
        EXPECT_EQ(res.coupled.total_seconds, mono.total_seconds);
        EXPECT_EQ(res.coupled.component_seconds, mono.component_seconds);
        EXPECT_EQ(res.coupled.coupling_loss_seconds,
                  mono.coupling_loss_seconds);
        EXPECT_EQ(res.coupled.restarts, mono.restarts);
        EXPECT_EQ(res.coupled.completed, mono.completed);
        EXPECT_EQ(res.actual_total, mono.total_seconds);
      }
    }
  }
}

}  // namespace
}  // namespace hslb::cesm

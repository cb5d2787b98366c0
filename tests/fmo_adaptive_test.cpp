#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "fmo/driver.hpp"
#include "fmo/molecule.hpp"
#include "fmo/scenario.hpp"
#include "pinned_run.hpp"
#include "sim/machine.hpp"

namespace hslb::fmo {
namespace {

System small_system(std::uint64_t seed = 50) {
  return water_cluster({.fragments = 10, .merge_fraction = 0.4,
                        .scf_cutoff_angstrom = 4.5, .seed = seed});
}

/// A static FMO setup: the dimer re-split path, the size-proxy ECT
/// fallback (no dimer probes), and a machine that charges link bandwidth
/// and paging (arXiv:2404.16793).
struct StaticSetup {
  std::string name;
  System sys;
  long long nodes = 0;
  PipelineOptions options;
};

std::vector<StaticSetup> static_setups() {
  PipelineOptions ect;
  ect.dimer_probe_count = 0;
  PipelineOptions charging;
  charging.run.machine = sim::Machine::intrepid_partition(96);
  charging.run.machine.link_gb_per_s = 0.425;
  charging.run.machine.memory_gb_per_node = 2.0;
  charging.run.machine.page_s_per_gb = 0.5;
  return {{"resplit", small_system(), 80, {}},
          {"ect", make_system("peptide", 12, 50), 96, ect},
          {"charging", make_system("comm", 12, 50), 96, charging}};
}

// ADPT-1: an adaptive run whose monitor never trips is the static pipeline
// — same schedule, same trace bytes, same accounting, same energy terms,
// same report fields — on every dimer path and on a charging machine.
TEST(FmoAdaptive, OneEpochParityWithStatic) {
  for (const auto& setup : static_setups()) {
    SCOPED_TRACE(setup.name);
    CostModel cost;
    const PipelineOptions& stat = setup.options;
    PipelineOptions adap = stat;
    adap.rebalance.adaptive = true;
    adap.rebalance.imbalance_threshold = 1e9;  // never trigger
    adap.rebalance.drift_threshold = 1e9;

    const auto a = run_pipeline(setup.sys, cost, setup.nodes, stat);
    const auto b = run_pipeline(setup.sys, cost, setup.nodes, adap);

    // Execution: bit-identical trace, accounting and chemistry.
    EXPECT_EQ(a.hslb.trace.to_csv(), b.hslb.trace.to_csv());
    EXPECT_EQ(a.hslb.total_seconds, b.hslb.total_seconds);
    EXPECT_EQ(a.hslb.scc_seconds, b.hslb.scc_seconds);
    EXPECT_EQ(a.hslb.dimer_seconds, b.hslb.dimer_seconds);
    EXPECT_EQ(a.hslb.scc_iterations, b.hslb.scc_iterations);
    EXPECT_EQ(a.hslb.busy_node_seconds, b.hslb.busy_node_seconds);
    EXPECT_EQ(a.hslb.group_busy, b.hslb.group_busy);
    EXPECT_EQ(a.hslb.group_nodes, b.hslb.group_nodes);
    EXPECT_EQ(a.hslb.energy.monomer, b.hslb.energy.monomer);
    EXPECT_EQ(a.hslb.energy.scf_dimer, b.hslb.energy.scf_dimer);
    EXPECT_EQ(a.hslb.energy.es_dimer, b.hslb.energy.es_dimer);
    EXPECT_EQ(a.hslb.comm_seconds, b.hslb.comm_seconds);
    EXPECT_EQ(a.hslb.page_seconds, b.hslb.page_seconds);
    EXPECT_EQ(a.hslb.monomer_task_seconds, b.hslb.monomer_task_seconds);
    EXPECT_EQ(a.hslb.restarts, b.hslb.restarts);
    EXPECT_TRUE(a.hslb.completed && b.hslb.completed);

    // The DLB baseline is untouched by the adaptive flag.
    EXPECT_EQ(a.dlb.trace.to_csv(), b.dlb.trace.to_csv());

    // Report: every deterministic field matches; the closed-loop columns
    // report exactly one epoch, zero rebalances, zero migration.
    EXPECT_EQ(a.report.predicted_total, b.report.predicted_total);
    EXPECT_EQ(a.report.actual_total, b.report.actual_total);
    EXPECT_EQ(a.report.exec.makespan, b.report.exec.makespan);
    EXPECT_EQ(a.report.exec.busy_unit_seconds,
              b.report.exec.busy_unit_seconds);
    EXPECT_EQ(a.report.exec.imbalance, b.report.exec.imbalance);
    EXPECT_EQ(a.report.exec.percent_imbalance,
              b.report.exec.percent_imbalance);
    ASSERT_EQ(a.report.terms.size(), b.report.terms.size());
    for (std::size_t t = 0; t < a.report.terms.size(); ++t) {
      EXPECT_EQ(a.report.terms[t].term, b.report.terms[t].term);
      EXPECT_EQ(a.report.terms[t].actual_seconds,
                b.report.terms[t].actual_seconds);
    }
    EXPECT_EQ(a.report.epochs, 1u);
    EXPECT_EQ(b.report.epochs, 1u);
    EXPECT_EQ(b.report.rebalances, 0u);
    EXPECT_EQ(b.report.migration_seconds, 0.0);
    EXPECT_TRUE(b.resolve_stats.empty());
  }
}

// ADPT-2: parity holds on every worker-thread count (gather/fit threading
// must not leak into the closed-loop decisions).
TEST(FmoAdaptive, ParityAcrossThreadCounts) {
  const auto sys = small_system(51);
  CostModel cost;
  PipelineOptions adap;
  adap.rebalance.adaptive = true;
  adap.rebalance.imbalance_threshold = 1e9;
  adap.rebalance.drift_threshold = 1e9;
  adap.threads = 1;
  const auto t1 = run_pipeline(sys, cost, 64, adap);
  adap.threads = 4;
  const auto t4 = run_pipeline(sys, cost, 64, adap);
  EXPECT_EQ(t1.hslb.trace.to_csv(), t4.hslb.trace.to_csv());
  EXPECT_EQ(t1.hslb.total_seconds, t4.hslb.total_seconds);
  EXPECT_EQ(t1.report.rebalances, t4.report.rebalances);
}

// ADPT-3: a permanent node failure the static schedule cannot survive is
// completed by the closed loop — re-solve over the surviving segment,
// migration charged on a communication-modelling machine.
TEST(FmoAdaptive, CompletesPermanentFailureStaticCannot) {
  const auto sys = small_system(52);
  CostModel cost;
  PipelineOptions opt;
  opt.run.fail_node = 0;
  opt.run.fail_time = 1.0;  // permanent (default downtime = infinity)
  // A machine that models communication, so migration has a real price.
  opt.run.machine = sim::Machine{"intrepid", 64, 4};
  opt.run.machine.link_gb_per_s = 0.425;  // BG/P injection bandwidth

  const auto stat = run_pipeline(sys, cost, 64, opt);
  EXPECT_FALSE(stat.hslb.completed);

  PipelineOptions adap = opt;
  adap.rebalance.adaptive = true;
  const auto res = run_pipeline(sys, cost, 64, adap);
  EXPECT_TRUE(res.hslb.completed);
  EXPECT_GE(res.report.rebalances, 1u);
  EXPECT_GT(res.report.migration_seconds, 0.0);
  EXPECT_GT(res.hslb.restarts, 0u);
  // Re-solve diagnostics surfaced for every controller re-solve.
  EXPECT_EQ(res.resolve_stats.size(), res.report.rebalances);
  // The chemistry is unchanged: energy matches the static reference.
  EXPECT_NEAR(res.hslb.energy.total(), stat.hslb.energy.total(), 1e-9);
}

// ADPT-4: rebalance decisions are identical across thread counts even when
// the loop does trigger.
TEST(FmoAdaptive, FailureDecisionsDeterministicAcrossThreads) {
  const auto sys = small_system(53);
  CostModel cost;
  PipelineOptions adap;
  adap.rebalance.adaptive = true;
  adap.run.fail_node = 0;
  adap.run.fail_time = 1.0;
  adap.threads = 1;
  const auto t1 = run_pipeline(sys, cost, 64, adap);
  adap.threads = 4;
  const auto t4 = run_pipeline(sys, cost, 64, adap);
  EXPECT_EQ(t1.hslb.trace.to_csv(), t4.hslb.trace.to_csv());
  EXPECT_EQ(t1.report.rebalances, t4.report.rebalances);
  EXPECT_EQ(t1.report.migration_seconds, t4.report.migration_seconds);
  EXPECT_EQ(t1.hslb.completed, t4.hslb.completed);
}

// ADPT-5: mid-run cost drift trips the drift monitor and the refitted
// re-solve reacts; the run still completes and reports its rebalances.
TEST(FmoAdaptive, DriftTriggersRebalance) {
  const auto sys = small_system(54);
  CostModel cost;
  PipelineOptions opt;
  // Slow the first three fragments 4x from iteration 3 onwards.
  opt.run.task_scale.assign(sys.fragments.size(), 1.0);
  opt.run.task_scale[0] = opt.run.task_scale[1] = opt.run.task_scale[2] = 4.0;
  opt.run.drift_onset = 3;

  PipelineOptions adap = opt;
  adap.rebalance.adaptive = true;
  adap.rebalance.imbalance_threshold = 0.15;
  adap.rebalance.drift_threshold = 0.10;

  const auto stat = run_pipeline(sys, cost, 64, opt);
  const auto res = run_pipeline(sys, cost, 64, adap);
  EXPECT_TRUE(res.hslb.completed);
  EXPECT_GE(res.report.rebalances, 1u);
  // Reacting to the drift must not be worse than riding it out statically
  // (beyond the migration stalls it chose to pay).
  EXPECT_LE(res.hslb.total_seconds,
            stat.hslb.total_seconds + res.report.migration_seconds + 1e-9);
}

// ADPT-6..8: triggered closed-loop runs pinned to captured values —
// rebalances, restarts, trace events, the B&B nodes of every warm re-solve
// (0: each one is certified), the final allocation, and the makespan.
RebalancePolicy adaptive_policy() {
  RebalancePolicy policy;
  policy.adaptive = true;
  return policy;
}

TEST(FmoAdaptive, PinnedStragglerRun) {
  PipelineOptions opt;
  opt.run.straggler_cv = 0.4;
  const pinning::Pinned want{8, 0, 131, 0,
                             {0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
                             {2, 1, 1, 1, 37, 1, 2, 1, 1, 1},
                             8.8584944755356627,
                             0x296b100244241a50ull};
  pinning::expect_pinned(
      "fmo_straggler",
      [&] { return make_application(small_system(55), CostModel{}, 64, opt); },
      adaptive_policy(), want);
}

TEST(FmoAdaptive, PinnedDriftRun) {
  const auto sys = small_system(54);
  PipelineOptions opt;
  opt.run.task_scale.assign(sys.fragments.size(), 1.0);
  opt.run.task_scale[0] = opt.run.task_scale[1] = opt.run.task_scale[2] = 4.0;
  opt.run.drift_onset = 3;
  RebalancePolicy policy = adaptive_policy();
  policy.imbalance_threshold = 0.15;
  const pinning::Pinned want{5, 0, 132, 0,
                             {0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
                             {12, 10, 1, 1, 5, 1, 5, 1, 2, 1},
                             24.049128656084864,
                             0x30130131ced851aaull};
  pinning::expect_pinned(
      "fmo_drift", [&] { return make_application(sys, CostModel{}, 64, opt); },
      policy, want);
}

TEST(FmoAdaptive, PinnedFailStopRun) {
  PipelineOptions opt;
  opt.run.fail_node = 0;
  opt.run.fail_time = 1.0;
  opt.run.machine = sim::Machine{"intrepid", 64, 4};
  opt.run.machine.link_gb_per_s = 0.425;
  const pinning::Pinned want{1, 1, 132, 0,
                             {0},
                             {1, 7, 1, 1, 1, 24, 25, 1, 1, 1},
                             5.7191427420670147,
                             0xa24100774e4c7ea6ull};
  pinning::expect_pinned(
      "fmo_failstop",
      [&] { return make_application(small_system(52), CostModel{}, 64, opt); },
      adaptive_policy(), want);
}

// ADPT-9: static runs of every static setup, pinned to captured values — trace events, the B&B nodes of the Solve (0: it is
// certified), the allocation, the makespan and the trace digest; no
// rebalance, no restart.
TEST(FmoAdaptive, PinnedStaticRuns) {
  const pinning::Pinned want[] = {
      {0, 0, 132, 0, {}, {1, 1, 1, 1, 8, 1, 31, 8, 27, 1},
       5.6111345382185815, 0xe621694388b8901full},
      {0, 0, 152, 0, {}, {18, 4, 12, 1, 4, 11, 5, 1, 10, 3, 13, 14},
       93.498751471612849, 0x18662a2f721fbfd9ull},
      {0, 0, 177, 0, {}, {1, 1, 1, 1, 1, 1, 5, 1, 6, 1, 1, 1},
       31.143958224596155, 0x735f8273130745eaull},
  };
  const auto setups = static_setups();
  for (std::size_t s = 0; s < setups.size(); ++s) {
    const PipelineOptions& opt = setups[s].options;
    pinning::expect_pinned(
        "fmo_static_" + setups[s].name,
        [&] {
          return make_application(setups[s].sys, CostModel{}, setups[s].nodes,
                                  opt);
        },
        RebalancePolicy{}, want[s]);
  }
}

// ADPT-10: a permanent failure inside the dimer phase (node 63 at 4.7473 s;
// the SCC loop ends at 4.332 s), static and adaptive, on the re-split path
// and on the ECT fallback (no dimer probes), pinned. Each run aborts one
// dimer attempt; the static runs stop there, incomplete, and the adaptive
// runs re-solve once and re-run the pending dimers, with the ES tail
// rescaled to the surviving budget (and ECT on the shrunken segment).
TEST(FmoAdaptive, PinnedDimerPhaseFailStop) {
  struct Case {
    std::string name;
    std::size_t dimer_probes;
    bool adaptive;
    pinning::Pinned want;
  };
  const std::size_t probes = PipelineOptions{}.dimer_probe_count;
  const Case cases[] = {
      {"fmo_dimer_failstop_resplit", probes, false,
       {0, 1, 129, 0, {}, {1, 7, 1, 1, 1, 24, 26, 1, 1, 1},
        5.7162229484136109, 0xc41184dcce31212aull}},
      {"fmo_dimer_failstop_resplit_adaptive", probes, true,
       {1, 1, 131, 0, {0}, {1, 7, 1, 1, 1, 24, 25, 1, 1, 1},
        5.7369226176952095, 0xf0d8fbd305ffd4a6ull}},
      {"fmo_dimer_failstop_ect", 0, false,
       {0, 1, 120, 0, {}, {1, 7, 1, 1, 1, 24, 26, 1, 1, 1},
        5.4559828670701647, 0x718d7814037fe632ull}},
      {"fmo_dimer_failstop_ect_adaptive", 0, true,
       {1, 1, 131, 0, {0}, {1, 7, 1, 1, 1, 24, 25, 1, 1, 1},
        6.4592930994508873, 0xdd8b480d3b05a5bfull}},
  };
  for (const auto& c : cases) {
    PipelineOptions opt;
    opt.dimer_probe_count = c.dimer_probes;
    opt.run.fail_node = 63;
    opt.run.fail_time = 4.7473;  // permanent (default downtime = infinity)
    pinning::expect_pinned(
        c.name,
        [&] {
          return make_application(small_system(52), CostModel{}, 64, opt);
        },
        c.adaptive ? adaptive_policy() : RebalancePolicy{}, c.want);
  }
}

}  // namespace
}  // namespace hslb::fmo

// Epoch controls of Runtime::run (EpochOptions / EpochState): the
// resumable substrate under every epoch runner. The anchor property is
// that the defaults are bit-identical to the one-shot run; that an epoch
// split leaves a substrate's schedule unchanged is checked where the
// substrates cut their epochs (e.g. CesmAdaptive.ChunkSizeInvariance).
#include "sim/runtime.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/contracts.hpp"
#include "sim/trace.hpp"

namespace hslb::sim {
namespace {

Runtime diamond_runtime() {
  // a on [0,2), b on [2,2), c on [0,4) after both, d on [1,2) after c.
  Runtime rt(Machine::workstation(4));
  const auto a = rt.add_task("a", 2.0, {0, 2});
  const auto b = rt.add_task("b", 3.0, {2, 2});
  const auto c = rt.add_task("c", 1.0, {0, 4}, {a, b});
  rt.add_task("d", 2.0, {1, 2}, {c});
  return rt;
}

TEST(SimEpoch, DefaultOptionsMatchOneShot) {
  const Runtime rt = diamond_runtime();
  const RunResult one = rt.run();
  EpochState state;
  const RunResult ep = rt.run({}, EpochOptions{}, &state);

  EXPECT_EQ(one.trace.to_csv(), ep.trace.to_csv());
  EXPECT_EQ(one.makespan, ep.makespan);
  EXPECT_FALSE(ep.failure_paused);
  ASSERT_EQ(state.ran.size(), rt.num_tasks());
  for (std::uint8_t r : state.ran) EXPECT_EQ(r, 1);
  // Every observation is a successful task's compute seconds.
  EXPECT_EQ(state.observed.size(), rt.num_tasks());
}

TEST(SimEpoch, StartClockShiftsSchedule) {
  const Runtime rt = diamond_runtime();
  const RunResult one = rt.run();
  EpochOptions epoch;
  epoch.start = 5.0;
  EpochState state;
  const RunResult r = rt.run({}, epoch, &state);
  for (std::size_t t = 0; t < rt.num_tasks(); ++t) {
    EXPECT_DOUBLE_EQ(r.tasks[t].start, one.tasks[t].start + 5.0);
    EXPECT_DOUBLE_EQ(r.tasks[t].end, one.tasks[t].end + 5.0);
  }
  // The node clocks after the epoch carry the shift too: c (all nodes)
  // ends at 5 + 4, d (nodes 1-2) at 5 + 6.
  ASSERT_EQ(state.node_free.size(), 4u);
  EXPECT_DOUBLE_EQ(state.node_free[0], 9.0);
  EXPECT_DOUBLE_EQ(state.node_free[1], 11.0);
  EXPECT_DOUBLE_EQ(state.node_free[3], 9.0);

  EpochOptions negative;
  negative.start = -1.0;
  EXPECT_THROW(rt.run({}, negative, nullptr), ContractViolation);
}

// stop_on_failure pauses the run at the first permanently infeasible task
// (deferring it and its successors) instead of cascading the failure.
TEST(SimEpoch, StopOnFailurePausesInsteadOfCascading) {
  const Runtime rt = diamond_runtime();
  Perturbation p;
  p.fail_node = 0;
  p.fail_time = 1.0;  // permanent: a (and later c) can never run

  const RunResult cascade = rt.run(p);
  EXPECT_FALSE(cascade.completed);
  EXPECT_FALSE(cascade.failure_paused);

  EpochOptions epoch;
  epoch.stop_on_failure = true;
  EpochState state;
  const RunResult r = rt.run(p, epoch, &state);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.failure_paused);
  EXPECT_EQ(r.paused_task, 0u);  // a's node set lost node 0 forever
  EXPECT_EQ(state.ran[0], 0);
  // b lives on nodes {2,3} and is unaffected by the pause ordering only if
  // it was dispatched before the pause; either way it never ran on node 0.
  EXPECT_TRUE(std::isinf(r.tasks[0].start));
}

// Satellite: a finite-downtime failure recovers, and the recovered node is
// reused — the aborted attempt, the idle gap, and the retry are all visible
// in the trace with exact times.
TEST(SimEpoch, FiniteDowntimeRecoveryReusesNode) {
  Runtime rt(Machine::workstation(1));
  rt.add_task("a", 2.0, {0, 1});
  Perturbation p;
  p.fail_node = 0;
  p.fail_time = 1.0;
  p.fail_downtime = 2.0;  // down on [1, 3), back at 3
  const RunResult r = rt.run(p);

  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.restarts, 1u);
  EXPECT_DOUBLE_EQ(r.makespan, 5.0);  // retry [3, 5)
  ASSERT_EQ(r.trace.events.size(), 2u);
  EXPECT_TRUE(r.trace.events[0].aborted);
  EXPECT_DOUBLE_EQ(r.trace.events[0].start, 0.0);
  EXPECT_DOUBLE_EQ(r.trace.events[0].end, 1.0);    // work lost at the fail
  EXPECT_FALSE(r.trace.events[1].aborted);
  EXPECT_DOUBLE_EQ(r.trace.events[1].start, 3.0);  // idle gap [1, 3) exact
  EXPECT_DOUBLE_EQ(r.trace.events[1].end, 5.0);
}

TEST(SimEpoch, MigrationSecondsPriceOnlyModelledLinks) {
  Machine m{"m", 4, 1};
  m.link_gb_per_s = 2.0;
  EXPECT_DOUBLE_EQ(m.migration_seconds(4.0), 2.0);
  EXPECT_DOUBLE_EQ(m.migration_seconds(0.0), 0.0);

  const Machine free_link{"free", 4, 1};  // infinite link: compute-only
  EXPECT_DOUBLE_EQ(free_link.migration_seconds(4.0), 0.0);
}

// Percent imbalance λ (arXiv:2104.01688): mean over *all* allocated nodes,
// so idle nodes count as imbalance; imbalance() averages busy nodes only.
TEST(SimEpoch, PercentImbalanceCountsIdleNodes) {
  Trace t;
  t.nodes = 4;
  t.events.push_back({"a", "p", 0, 1, 0.0, 3.0, false});
  t.events.push_back({"b", "p", 1, 1, 0.0, 1.0, false});
  // busy = {3, 1, 0, 0}: max 3, mean over all nodes 1, over busy nodes 2.
  EXPECT_DOUBLE_EQ(t.percent_imbalance(), 200.0);
  EXPECT_DOUBLE_EQ(t.imbalance(), 0.5);
  EXPECT_DOUBLE_EQ(Trace{}.percent_imbalance(), 0.0);
}

}  // namespace
}  // namespace hslb::sim

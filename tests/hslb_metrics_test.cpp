// Pins the optimal-LB metric definitions (arXiv:2104.01688) against
// hand-computed values: imbalance = max/mean - 1 over *busy* units,
// percent imbalance lambda = (max/mean - 1) x 100 over *all* units, sigma
// = (stddev/mean) x 100 over all units — and checks Metrics::from_trace
// agrees with the trace's own accessors exactly.
#include <gtest/gtest.h>

#include "hslb/metrics.hpp"
#include "sim/trace.hpp"

namespace hslb {
namespace {

sim::Trace hand_trace() {
  // Three nodes: node 0 busy [0,4), node 1 busy [0,2), node 2 idle.
  sim::Trace t;
  t.machine = "hand";
  t.nodes = 3;
  t.events.push_back({"a", "p", 0, 1, 0.0, 4.0, false});
  t.events.push_back({"b", "p", 1, 1, 0.0, 2.0, false});
  return t;
}

TEST(Metrics, HandComputedTrace) {
  const auto t = hand_trace();
  const Metrics m = Metrics::from_trace(t);
  EXPECT_DOUBLE_EQ(m.makespan, 4.0);
  EXPECT_DOUBLE_EQ(m.busy_unit_seconds, 6.0);
  EXPECT_DOUBLE_EQ(m.efficiency, 6.0 / 12.0);
  // Busy nodes {4, 2}: mean 3, max 4.
  EXPECT_DOUBLE_EQ(m.imbalance, 4.0 / 3.0 - 1.0);
  // All nodes {4, 2, 0}: mean 2 -> lambda = 100%.
  EXPECT_DOUBLE_EQ(m.percent_imbalance, 100.0);
  // sigma = stddev/mean x 100 over {4, 2, 0}: mean 2, sample variance
  // (4 + 0 + 4) / 2 = 4.
  EXPECT_DOUBLE_EQ(m.sigma_percent, 100.0);
}

TEST(Metrics, FromTraceMatchesTraceAccessorsExactly) {
  const auto t = hand_trace();
  const Metrics m = Metrics::from_trace(t);
  // Bit-identical to the trace's own derivations — the parity the report
  // refactor relies on.
  EXPECT_EQ(m.makespan, t.makespan());
  EXPECT_EQ(m.busy_unit_seconds, t.busy_node_seconds());
  EXPECT_EQ(m.efficiency, t.efficiency());
  EXPECT_EQ(m.imbalance, t.imbalance());
  EXPECT_EQ(m.percent_imbalance, t.percent_imbalance());
}

TEST(Metrics, AbortedEventsDoNotCountAsBusyTime) {
  auto t = hand_trace();
  t.events.push_back({"c", "p", 2, 1, 0.0, 5.0, true});
  const Metrics m = Metrics::from_trace(t);
  // Makespan extends to the aborted attempt's end, busy time does not.
  EXPECT_DOUBLE_EQ(m.makespan, 5.0);
  EXPECT_DOUBLE_EQ(m.busy_unit_seconds, 6.0);
  EXPECT_EQ(m.percent_imbalance, t.percent_imbalance());
}

TEST(Metrics, StrMentionsTheHeadlineNumbers) {
  const auto s = Metrics::from_trace(hand_trace()).str();
  EXPECT_NE(s.find("makespan"), std::string::npos);
  EXPECT_NE(s.find("lambda"), std::string::npos);
}

}  // namespace
}  // namespace hslb

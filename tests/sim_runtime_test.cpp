#include "sim/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "sim/trace.hpp"

namespace hslb::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Runtime diamond_runtime() {
  // a on [0,2), b on [2,2), c on [0,4) after both, d on [1,2) after c.
  Runtime rt(Machine::workstation(4));
  const auto a = rt.add_task("a", 2.0, {0, 2});
  const auto b = rt.add_task("b", 3.0, {2, 2});
  const auto c = rt.add_task("c", 1.0, {0, 4}, {a, b});
  rt.add_task("d", 2.0, {1, 2}, {c});
  return rt;
}

TEST(NodeSet, OverlapDetection) {
  EXPECT_TRUE((NodeSet{0, 4}).overlaps(NodeSet{3, 2}));
  EXPECT_FALSE((NodeSet{0, 4}).overlaps(NodeSet{4, 2}));
  EXPECT_TRUE((NodeSet{2, 1}).overlaps(NodeSet{0, 8}));
  EXPECT_FALSE((NodeSet{0, 0}).overlaps(NodeSet{0, 8}));
}

struct HandTask {
  const char* name;
  double duration;
  NodeSet nodes;
  std::vector<std::size_t> deps = {};
};

/// An unperturbed schedule worked out by hand: every task's start and the
/// makespan.
struct HandSchedule {
  const char* what;
  std::size_t nodes;
  std::vector<HandTask> tasks;
  std::vector<double> starts;
  double makespan;
};

TEST(Runtime, UnperturbedSchedulesMatchHandComputed) {
  const std::vector<HandSchedule> cases = {
      {"independent tasks run concurrently", 8,
       {{"a", 5.0, {0, 4}}, {"b", 3.0, {4, 4}}},
       {0.0, 0.0},
       5.0},
      {"shared nodes serialize", 4,
       {{"a", 2.0, {0, 4}}, {"b", 3.0, {0, 2}}},
       {0.0, 2.0},
       5.0},
      {"dependencies hold across node sets", 8,
       {{"a", 2.0, {0, 4}}, {"b", 1.0, {4, 4}, {0}}},
       {0.0, 2.0},
       3.0},
      // CESM layout 1: ice || lnd on atm's block [0, 8), then atm; ocn on
      // [8, 12) alongside, so T = max(max(ice, lnd) + atm, ocn) = 40.
      {"layout-1 semantics", 12,
       {{"ice", 10.0, {0, 5}},
        {"lnd", 6.0, {5, 3}},
        {"atm", 30.0, {0, 8}, {0, 1}},
        {"ocn", 36.0, {8, 4}}},
       {0.0, 0.0, 10.0, 0.0},
       40.0},
      {"diamond (diamond_runtime)", 4,
       {{"a", 2.0, {0, 2}},
        {"b", 3.0, {2, 2}},
        {"c", 1.0, {0, 4}, {0, 1}},
        {"d", 2.0, {1, 2}, {2}}},
       {0.0, 0.0, 3.0, 4.0},
       6.0},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    Runtime rt(Machine::workstation(c.nodes));
    for (const auto& t : c.tasks)
      rt.add_task(t.name, t.duration, t.nodes, t.deps);
    const RunResult r = rt.run();
    ASSERT_EQ(r.tasks.size(), c.starts.size());
    for (std::size_t t = 0; t < c.starts.size(); ++t) {
      EXPECT_DOUBLE_EQ(r.tasks[t].start, c.starts[t]);
      EXPECT_DOUBLE_EQ(r.tasks[t].end, c.starts[t] + c.tasks[t].duration);
    }
    EXPECT_DOUBLE_EQ(r.makespan, c.makespan);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.restarts, 0u);
    EXPECT_EQ(r.trace.events.size(), c.tasks.size());
    EXPECT_DOUBLE_EQ(r.trace.makespan(), r.makespan);
  }
}

/// Schedule invariants that must hold under any perturbation: tasks on
/// overlapping node sets never overlap in time, and no task starts before
/// its dependencies end.
void expect_valid_schedule(const Runtime& rt, const RunResult& r) {
  for (std::size_t t = 0; t < rt.num_tasks(); ++t) {
    if (std::isinf(r.tasks[t].start)) continue;
    for (std::size_t d : rt.task(t).deps) {
      ASSERT_FALSE(std::isinf(r.tasks[d].end));
      EXPECT_GE(r.tasks[t].start, r.tasks[d].end);
    }
    for (std::size_t u = 0; u < t; ++u) {
      if (std::isinf(r.tasks[u].start)) continue;
      if (!rt.task(t).nodes.overlaps(rt.task(u).nodes)) continue;
      const bool disjoint = r.tasks[t].start >= r.tasks[u].end ||
                            r.tasks[u].start >= r.tasks[t].end;
      EXPECT_TRUE(disjoint) << "tasks " << t << " and " << u
                            << " overlap on shared nodes";
    }
  }
}

TEST(Runtime, PerturbedScheduleKeepsInvariants) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Perturbation p;
    p.noise_cv = 0.5;
    p.seed = seed;
    p.node_slowdown = Perturbation::stragglers(4, 0.3, seed);
    const Runtime rt = diamond_runtime();
    const RunResult r = rt.run(p);
    EXPECT_TRUE(r.completed);
    expect_valid_schedule(rt, r);
  }
}

TEST(Runtime, RandomGraphsKeepInvariants) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    Runtime rt(Machine::workstation(16));
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    for (int t = 0; t < n; ++t) {
      const auto first = static_cast<std::size_t>(rng.uniform_int(0, 12));
      const auto count = static_cast<std::size_t>(rng.uniform_int(1, 4));
      std::vector<std::size_t> deps;
      if (t > 0 && rng.uniform() < 0.5)
        deps.push_back(static_cast<std::size_t>(rng.uniform_int(0, t - 1)));
      rt.add_task("t" + std::to_string(t), rng.uniform(0.1, 5.0),
                  {first, count}, deps);
    }
    const RunResult r = rt.run();
    EXPECT_TRUE(r.completed);
    double max_end = 0.0;
    for (const auto& st : r.tasks) max_end = std::max(max_end, st.end);
    EXPECT_DOUBLE_EQ(r.makespan, max_end);
    expect_valid_schedule(rt, r);
  }
}

/// The scheduler Runtime::run replaced: every decision rescans every
/// pending task and starts the ready one with the earliest feasible start,
/// lowest id among ties, in O(tasks^2). An independent oracle for the
/// event-driven schedule, which picks in the same (start, id) order.
std::vector<ScheduledTask> rescan_schedule(const Runtime& rt) {
  const std::size_t n = rt.num_tasks();
  std::vector<ScheduledTask> out(n);
  std::vector<double> node_free(rt.machine().nodes, 0.0);
  std::vector<bool> done(n, false);
  for (std::size_t scheduled = 0; scheduled < n; ++scheduled) {
    std::size_t best = n;
    double best_start = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      const Task& task = rt.task(i);
      bool ready = true;
      double start = 0.0;
      for (std::size_t d : task.deps) {
        ready = ready && done[d];
        if (ready) start = std::max(start, out[d].end);
      }
      if (!ready) continue;
      for (std::size_t m = task.nodes.first; m < task.nodes.end(); ++m)
        start = std::max(start, node_free[m]);
      if (start < best_start) {
        best_start = start;
        best = i;
      }
    }
    const Task& task = rt.task(best);
    out[best] = {best_start, best_start + task.duration};
    for (std::size_t m = task.nodes.first; m < task.nodes.end(); ++m)
      node_free[m] = out[best].end;
    done[best] = true;
  }
  return out;
}

TEST(Runtime, EventDrivenScheduleMatchesRescanOracle) {
  // The wave graph of minlp_warmstart's 10^5-task scale point, scaled down
  // to 1,000 tasks on 64 nodes: single-node tasks chained wave over wave,
  // every 37th task an 8-node span instead. Sized to stay well under a
  // second in the sanitizer builds.
  constexpr std::size_t kWidth = 64, kTasks = 1000, kSpan = 8;
  Runtime rt(Machine::intrepid_partition(kWidth));
  std::vector<std::pair<std::size_t, NodeSet>> spans;  // (task, nodes)
  for (std::size_t i = 0; i < kTasks; ++i) {
    const bool wide = i % 37 == 0;
    const NodeSet nodes = wide ? NodeSet{(i * 7) % (kWidth - kSpan + 1), kSpan}
                               : NodeSet{i % kWidth, 1};
    if (wide) spans.emplace_back(i, nodes);
    std::vector<std::size_t> deps;
    if (i >= kWidth) deps.push_back(i - kWidth);
    rt.add_task("t" + std::to_string(i),
                1.0 + 0.001 * static_cast<double>(i % 97), nodes,
                std::move(deps));
  }
  // The multi-node spans contend for nodes with one another, not only with
  // the single-node tasks: count span pairs under two waves apart whose
  // node ranges overlap.
  std::size_t overlapping = 0;
  for (std::size_t a = 0; a < spans.size(); ++a) {
    for (std::size_t b = a + 1;
         b < spans.size() && spans[b].first - spans[a].first < 2 * kWidth; ++b)
      overlapping += spans[a].second.overlaps(spans[b].second) ? 1 : 0;
  }
  EXPECT_GE(overlapping, 5u);

  const RunResult run = rt.run();
  ASSERT_TRUE(run.completed);
  const std::vector<ScheduledTask> oracle = rescan_schedule(rt);
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(run.tasks[i].start, oracle[i].start) << "task " << i;
    ASSERT_EQ(run.tasks[i].end, oracle[i].end) << "task " << i;
  }
}

TEST(Runtime, GanttHandlesZeroDurationAndEmptyCharts) {
  Runtime rt(Machine::workstation(4));
  rt.add_task("work", 2.0, {0, 2});
  rt.add_task("marker", 0.0, {2, 2});       // instantaneous event
  rt.add_task("tail", 0.0, {0, 4}, {0, 1});  // zero-duration at the makespan
  const RunResult r = rt.run();
  EXPECT_DOUBLE_EQ(r.tasks[1].end, r.tasks[1].start);
  EXPECT_DOUBLE_EQ(r.tasks[2].start, r.makespan);
  const std::string chart = r.trace.gantt();
  for (const char* name : {"work", "marker", "tail"})
    EXPECT_NE(chart.find(name), std::string::npos) << name;
  EXPECT_NE(chart.find('#'), std::string::npos);

  Runtime zero(Machine::workstation(2));
  zero.add_task("a", 0.0, {0, 1});
  zero.add_task("b", 0.0, {1, 1});
  const RunResult z = zero.run();
  EXPECT_DOUBLE_EQ(z.makespan, 0.0);
  EXPECT_NE(z.trace.gantt().find('a'), std::string::npos);

  Trace empty;
  empty.nodes = 4;
  EXPECT_DOUBLE_EQ(empty.makespan(), 0.0);
  EXPECT_NO_THROW(empty.gantt());
}

TEST(Runtime, NoiseIsKeyedNotOrdered) {
  Perturbation p;
  p.noise_cv = 0.3;
  p.seed = 42;
  // Same (phase, task, attempt) => same factor regardless of call order.
  const double f1 = p.noise("scc0", "w1", 0);
  p.noise("dimer", "w1.w2", 0);
  p.noise("scc0", "w2", 3);
  const double f2 = p.noise("scc0", "w1", 0);
  EXPECT_DOUBLE_EQ(f1, f2);
  // Distinct keys draw distinct factors.
  EXPECT_NE(p.noise("scc0", "w1", 0), p.noise("scc0", "w1", 1));
  EXPECT_NE(p.noise("scc0", "w1", 0), p.noise("scc1", "w1", 0));
  // cv = 0 disables noise entirely.
  Perturbation off;
  EXPECT_DOUBLE_EQ(off.noise("p", "t", 0), 1.0);
}

TEST(Runtime, StragglerFactorsAtLeastOneAndDeterministic) {
  const auto f1 = Perturbation::stragglers(64, 0.2, 9);
  const auto f2 = Perturbation::stragglers(64, 0.2, 9);
  ASSERT_EQ(f1.size(), 64u);
  EXPECT_EQ(f1, f2);
  double mx = 1.0;
  for (double f : f1) {
    EXPECT_GE(f, 1.0);
    mx = std::max(mx, f);
  }
  EXPECT_GT(mx, 1.0);  // cv = 0.2 over 64 nodes surely produces a straggler
  // No stragglers at cv = 0.
  for (double f : Perturbation::stragglers(8, 0.0, 9)) EXPECT_DOUBLE_EQ(f, 1.0);
}

TEST(Runtime, StragglersOnlySlowDown) {
  const Runtime rt = diamond_runtime();
  const double base = rt.run().makespan;
  Perturbation p;
  p.node_slowdown = {2.0, 1.0, 1.0, 1.0};
  const RunResult r = rt.run(p);
  EXPECT_GE(r.makespan, base);
  // Task "a" spans node 0 and runs at the slowest node's speed.
  EXPECT_DOUBLE_EQ(r.tasks[0].end - r.tasks[0].start, 4.0);
  // Task "b" avoids node 0 entirely.
  EXPECT_DOUBLE_EQ(r.tasks[1].end - r.tasks[1].start, 3.0);
}

TEST(Runtime, FixedTasksExemptFromNoiseAndStragglers) {
  Runtime rt(Machine::workstation(2));
  rt.add_task("sync", 0.5, {0, 2}, {}, "phase", /*fixed=*/true);
  Perturbation p;
  p.noise_cv = 0.9;
  p.seed = 3;
  p.node_slowdown = {5.0, 5.0};
  const RunResult r = rt.run(p);
  EXPECT_DOUBLE_EQ(r.tasks[0].end, 0.5);
}

TEST(Runtime, TransientFailureRestartsAndCompletes) {
  Runtime rt(Machine::workstation(2));
  rt.add_task("t", 4.0, {0, 1});
  Perturbation p;
  p.fail_node = 0;
  p.fail_time = 1.0;
  p.fail_downtime = 2.0;  // node back at t = 3
  const RunResult r = rt.run(p);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.restarts, 1u);
  EXPECT_DOUBLE_EQ(r.tasks[0].start, 3.0);
  EXPECT_DOUBLE_EQ(r.tasks[0].end, 7.0);
  // The aborted attempt stays in the trace but not in the busy accounting.
  ASSERT_EQ(r.trace.events.size(), 2u);
  EXPECT_TRUE(r.trace.events[0].aborted);
  EXPECT_DOUBLE_EQ(r.trace.events[0].end, 1.0);
  EXPECT_DOUBLE_EQ(r.trace.busy_node_seconds(), 4.0);
}

TEST(Runtime, PermanentFailureWedgesStaticScheduleAndDependents) {
  Runtime rt(Machine::workstation(2));
  const auto a = rt.add_task("a", 2.0, {0, 1});
  const auto b = rt.add_task("b", 1.0, {1, 1});
  rt.add_task("c", 1.0, {0, 2}, {a, b});
  Perturbation p;
  p.fail_node = 0;
  p.fail_time = 1.0;  // permanent: default downtime is infinite
  const RunResult r = rt.run(p);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(std::isinf(r.tasks[0].start));  // pinned to the dead node
  EXPECT_DOUBLE_EQ(r.tasks[1].end, 1.0);      // untouched node still runs
  EXPECT_TRUE(std::isinf(r.tasks[2].start));  // dependent can never start
}

TEST(Runtime, QueueDrainsLargestFirstByEarliestFreeGroup) {
  const Machine m = Machine::workstation(4);
  const std::vector<NodeSet> groups{{0, 2}, {2, 2}};
  std::vector<Runtime::QueueTask> queue;
  for (double d : {5.0, 3.0, 2.0, 1.0}) {
    queue.push_back({"t" + std::to_string(queue.size()),
                     [d](long long) { return d; }, "q"});
  }
  const QueueRunResult r = Runtime::run_queue(m, groups, queue);
  EXPECT_TRUE(r.completed);
  // Both groups free at 0: tie goes to group 0, so t0 -> g0, t1 -> g1;
  // g1 frees at 3 < 5, pulls t2 (ends 5); tie at 5 goes to group 0 -> t3.
  EXPECT_EQ(r.task_group, (std::vector<std::size_t>{0, 1, 1, 0}));
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
  EXPECT_DOUBLE_EQ(r.group_busy[0], 6.0);
  EXPECT_DOUBLE_EQ(r.group_busy[1], 5.0);
}

TEST(Runtime, QueuePhasesShiftWithStartTime) {
  const Machine m = Machine::workstation(4);
  const std::vector<NodeSet> groups{{0, 2}, {2, 2}};
  std::vector<Runtime::QueueTask> queue;
  for (double d : {5.0, 3.0, 2.0, 1.0}) {
    queue.push_back({"t" + std::to_string(queue.size()),
                     [d](long long) { return d; }, "q"});
  }
  const QueueRunResult a = Runtime::run_queue(m, groups, queue);
  const QueueRunResult b = Runtime::run_queue(m, groups, queue, {}, 10.0);
  EXPECT_DOUBLE_EQ(b.makespan - 10.0, a.makespan);
  for (std::size_t t = 0; t < queue.size(); ++t) {
    EXPECT_DOUBLE_EQ(b.tasks[t].start - 10.0, a.tasks[t].start);
    EXPECT_EQ(b.task_group[t], a.task_group[t]);
  }
}

TEST(Runtime, QueueRedispatchesAroundDeadGroup) {
  const Machine m = Machine::workstation(4);
  const std::vector<NodeSet> groups{{0, 2}, {2, 2}};
  std::vector<Runtime::QueueTask> queue;
  for (int t = 0; t < 4; ++t) {
    queue.push_back({"t" + std::to_string(t),
                     [](long long) { return 2.0; }, "q"});
  }
  Perturbation p;
  p.fail_node = 0;
  p.fail_time = 1.0;  // permanent: group 0 aborts t0 and retires
  const QueueRunResult r = Runtime::run_queue(m, groups, queue, p);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.restarts, 1u);
  for (std::size_t t = 0; t < queue.size(); ++t)
    EXPECT_EQ(r.task_group[t], 1u);  // everything lands on the live group
  EXPECT_DOUBLE_EQ(r.makespan, 8.0);
  // Aborted attempts don't count as useful busy time.
  EXPECT_DOUBLE_EQ(r.group_busy[0], 0.0);
  EXPECT_DOUBLE_EQ(r.group_busy[1], 8.0);
}

TEST(Runtime, QueueIncompleteWhenAllGroupsRetire) {
  const Machine m = Machine::workstation(2);
  const std::vector<NodeSet> groups{{0, 1}, {1, 1}};
  std::vector<Runtime::QueueTask> queue{
      {"t0", [](long long) { return 2.0; }, "q"}};
  Perturbation p;
  p.fail_node = 0;
  p.fail_time = 0.5;
  // Only group 0 contains the failed node, so the run still completes...
  EXPECT_TRUE(Runtime::run_queue(m, groups, queue, p).completed);
  // ...but with a single group covering the failed node it cannot.
  const std::vector<NodeSet> one{{0, 2}};
  const QueueRunResult r = Runtime::run_queue(m, one, queue, p);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(std::isinf(r.tasks[0].start));
}

TEST(Runtime, TraceCsvRoundTripIsExact) {
  Perturbation p;
  p.noise_cv = 0.2;
  p.seed = 11;
  p.fail_node = 1;
  p.fail_time = 1.5;
  p.fail_downtime = 1.0;
  const Runtime rt = diamond_runtime();
  const RunResult r = rt.run(p);
  const Trace parsed = Trace::from_csv(r.trace.to_csv());
  EXPECT_EQ(parsed.machine, r.trace.machine);
  EXPECT_EQ(parsed.nodes, r.trace.nodes);
  EXPECT_EQ(parsed.cores_per_node, r.trace.cores_per_node);
  ASSERT_EQ(parsed.events.size(), r.trace.events.size());
  for (std::size_t e = 0; e < parsed.events.size(); ++e) {
    EXPECT_EQ(parsed.events[e].task, r.trace.events[e].task);
    EXPECT_EQ(parsed.events[e].aborted, r.trace.events[e].aborted);
    EXPECT_DOUBLE_EQ(parsed.events[e].start, r.trace.events[e].start);
    EXPECT_DOUBLE_EQ(parsed.events[e].end, r.trace.events[e].end);
  }
  EXPECT_DOUBLE_EQ(parsed.makespan(), r.trace.makespan());
  EXPECT_DOUBLE_EQ(parsed.busy_node_seconds(), r.trace.busy_node_seconds());
}

TEST(Runtime, AddTaskValidatesPlacementAndDeps) {
  Runtime rt(Machine::workstation(4));
  EXPECT_THROW(rt.add_task("t", 1.0, {0, 0}), ContractViolation);
  EXPECT_THROW(rt.add_task("t", 1.0, {3, 2}), ContractViolation);
  EXPECT_THROW(rt.add_task("t", -1.0, {0, 1}), ContractViolation);
  EXPECT_THROW(rt.add_task("t", 1.0, {0, 1}, {0}), ContractViolation);
  EXPECT_THROW(Runtime(Machine{}), ContractViolation);
  EXPECT_THROW(rt.add_task("t", 1.0, {0, 1}, {}, "", false, {-1.0, 0.0}),
               ContractViolation);
  EXPECT_THROW(rt.add_task("t", 1.0, {0, 1}, {}, "", false, {0.0, -1.0}),
               ContractViolation);
}

TEST(Runtime, KeyedNoiseMatchesStringNoise) {
  Perturbation p;
  p.noise_cv = 0.3;
  p.seed = 17;
  for (std::uint64_t attempt : {0u, 1u, 5u}) {
    EXPECT_DOUBLE_EQ(p.noise("scc3", "w7(x2)", attempt),
                     p.noise_keyed(p.noise_key("scc3", "w7(x2)"), attempt));
  }
}

TEST(Runtime, CommChargeExtendsTaskExactly) {
  Machine m = Machine::workstation(4);
  m.link_gb_per_s = 2.0;
  Runtime rt(m);
  // 0.5 GB to each of 2 spanning nodes at 2 GB/s = 0.5 s on top of 1 s.
  rt.add_task("halo", 1.0, {0, 2}, {}, "", false, {0.5, 0.0});
  rt.add_task("local", 1.0, {2, 2});  // no demand: exactly 1 s
  const RunResult r = rt.run();
  EXPECT_DOUBLE_EQ(r.tasks[0].end, 1.5);
  EXPECT_DOUBLE_EQ(r.tasks[1].end, 1.0);
  EXPECT_DOUBLE_EQ(r.comm_seconds, 0.5);
  EXPECT_EQ(r.page_seconds, 0.0);
  EXPECT_EQ(r.rejected, 0u);
}

TEST(Runtime, PagingChargeExtendsTaskExactly) {
  Machine m = Machine::workstation(4);
  m.memory_gb_per_node = 1.0;
  m.page_s_per_gb = 0.25;
  Runtime rt(m);
  // 4 GB over 2 nodes spills 1 GB/node; 2 GB at 0.25 s/GB = 0.5 s extra.
  rt.add_task("big", 1.0, {0, 2}, {}, "", false, {0.0, 4.0});
  const RunResult r = rt.run();
  EXPECT_DOUBLE_EQ(r.tasks[0].end, 1.5);
  EXPECT_DOUBLE_EQ(r.page_seconds, 0.5);
  EXPECT_TRUE(r.completed);
}

TEST(Runtime, MemoryOvercommitRejectsStaticPlacement) {
  Machine m = Machine::workstation(4);
  m.memory_gb_per_node = 1.0;  // page_s_per_gb = 0: overcommit is fatal
  Runtime rt(m);
  const auto big = rt.add_task("big", 1.0, {0, 2}, {}, "", false, {0.0, 4.0});
  rt.add_task("child", 1.0, {0, 2}, {big});
  rt.add_task("fits", 1.0, {2, 2}, {}, "", false, {0.0, 2.0});
  const RunResult r = rt.run();
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rejected, 1u);
  // The infeasible task and its dependant never ran; the fitting one did.
  EXPECT_TRUE(std::isinf(r.tasks[0].start));
  EXPECT_TRUE(std::isinf(r.tasks[1].start));
  EXPECT_DOUBLE_EQ(r.tasks[2].end, 1.0);
}

TEST(Runtime, ZeroBandwidthRejectsCommunicatingTask) {
  Machine m = Machine::workstation(2);
  m.link_gb_per_s = 0.0;
  Runtime rt(m);
  rt.add_task("halo", 1.0, {0, 2}, {}, "", false, {0.5, 0.0});
  const RunResult r = rt.run();
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rejected, 1u);
}

TEST(Runtime, QueueSkipsGroupsThatCannotFitTask) {
  Machine m = Machine::workstation(4);
  m.memory_gb_per_node = 1.0;
  // Group 0 has 1 node (1 GB), group 1 has 3 nodes (3 GB).
  const std::vector<NodeSet> groups = {{0, 1}, {1, 3}};
  std::vector<Runtime::QueueTask> queue;
  // Big task (2 GB) only fits group 1, though group 0 is free first (tie
  // broken by id): the unfit group is skipped, not retired.
  queue.push_back({"big", [](long long) { return 1.0; }, "", 0.0, 2.0});
  queue.push_back({"small", [](long long) { return 1.0; }, "", 0.0, 0.5});
  const auto r = Runtime::run_queue(m, groups, queue);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.task_group[0], 1u);
  EXPECT_EQ(r.task_group[1], 0u);  // skipped group still takes later work
}

TEST(Runtime, QueueRejectsTaskNoGroupCanRun) {
  Machine m = Machine::workstation(4);
  m.memory_gb_per_node = 1.0;
  const std::vector<NodeSet> groups = {{0, 2}, {2, 2}};
  std::vector<Runtime::QueueTask> queue;
  queue.push_back({"huge", [](long long) { return 1.0; }, "", 0.0, 100.0});
  queue.push_back({"ok", [](long long) { return 1.0; }, "", 0.0, 1.0});
  const auto r = Runtime::run_queue(m, groups, queue);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rejected, 1u);
  EXPECT_TRUE(std::isinf(r.tasks[0].start));
  // The queue keeps draining past the rejected entry.
  EXPECT_FALSE(std::isinf(r.tasks[1].start));
}

}  // namespace
}  // namespace hslb::sim

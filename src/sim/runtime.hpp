// The discrete-event execution runtime behind the Execute step.
//
// One engine, two dispatch modes:
//
//   * static dependency-driven scheduling (Runtime::run): tasks are placed
//     on fixed node sets with explicit dependencies — the HSLB regime,
//     where the Solve step already decided who runs where;
//   * dynamic shared-queue dispatch (Runtime::run_queue): a work queue is
//     drained by the earliest-free processor group — the stock DLB
//     baseline the paper argues against.
//
// Both modes run on a sim::Machine, record a per-attempt sim::Trace, and
// accept a Perturbation: keyed multiplicative noise per (phase, task,
// attempt), per-node straggler slowdown factors, and a single node
// fail-stop at a scheduled time (tasks running on the failed node abort
// and restart; with infinite downtime a static task pinned to that node
// can never run, while the dynamic queue simply re-dispatches elsewhere —
// the brittleness-vs-resilience trade the robustness bench measures).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "sim/trace.hpp"

namespace hslb::sim {

/// Contiguous range of node indices [first, first + count).
struct NodeSet {
  std::size_t first = 0;
  std::size_t count = 0;

  std::size_t end() const { return first + count; }
  bool overlaps(const NodeSet& other) const;
  bool operator==(const NodeSet&) const = default;
};

/// Communication and memory footprint of one task — what the extended cost
/// terms model and sim::Machine charges for. Zero (the default) keeps the
/// task purely compute: no charge, no feasibility check, bit-identical to
/// the demand-free runtime.
struct TaskDemand {
  /// GB of halo data each of the task's nodes must receive from off-node
  /// neighbours per execution (charged via Machine::comm_seconds).
  double comm_gb = 0.0;
  /// GB of working set the task spreads across its node span (checked and
  /// charged via Machine::memory_feasible / page_seconds).
  double memory_gb = 0.0;
};

/// A task occupies a contiguous range of machine nodes for `duration`
/// seconds and starts once its dependencies completed and its nodes are
/// free.
struct Task {
  std::string name;
  double duration = 0.0;
  NodeSet nodes;
  std::vector<std::size_t> deps;  ///< indices of prerequisite tasks
  /// `phase` keys the noise draw and labels trace events; `fixed` exempts
  /// the task from noise and straggler slowdowns (synchronization
  /// barriers, analytic phases).
  std::string phase;
  bool fixed = false;
  /// Per-execution communication and memory demand.
  double comm_gb = 0.0;
  double memory_gb = 0.0;
};

struct ScheduledTask {
  double start = 0.0;
  double end = 0.0;
};

/// What can go wrong between benchmarking and the production run.
struct Perturbation {
  /// Keyed multiplicative lognormal noise (0 = exact durations).
  double noise_cv = 0.0;
  std::uint64_t seed = 0;

  /// Per-node slowdown factors (>= 1); empty = no stragglers. Nodes past
  /// the vector's size run at full speed. A task runs at the speed of the
  /// slowest node in its set.
  std::vector<double> node_slowdown;

  static constexpr long long kNoFail = -1;
  /// Node that fail-stops at `fail_time` for `fail_downtime` seconds
  /// (infinity = permanent). kNoFail disables failure injection.
  long long fail_node = kNoFail;
  double fail_time = 0.0;
  double fail_downtime = std::numeric_limits<double>::infinity();

  bool fails() const { return fail_node >= 0; }
  /// True when the failed node lies inside `nodes`.
  bool hits(const NodeSet& nodes) const;

  /// max slowdown factor over the node set (1 when no stragglers).
  double slowdown(const NodeSet& nodes) const;

  /// One keyed noise factor: deterministic in (seed, phase, task, attempt)
  /// so results are invariant to scheduling order — the same convention as
  /// cesm::Simulator::benchmark_at. Equivalent to
  /// noise_keyed(noise_key(phase, task), attempt).
  double noise(const std::string& phase, const std::string& task,
               std::uint64_t attempt) const;

  /// Interned (phase, task) noise key: hash the strings once, then draw
  /// per attempt with noise_keyed. The runtime computes this once per task
  /// instead of re-hashing both strings on every attempt.
  std::uint64_t noise_key(const std::string& phase,
                          const std::string& task) const;

  /// The attempt draw for an interned key; bitwise identical to noise().
  double noise_keyed(std::uint64_t key, std::uint64_t attempt) const;

  /// Draws per-node straggler factors max(1, lognormal(cv)) from one
  /// seeded stream; use to share factors between runs being compared.
  static std::vector<double> stragglers(std::size_t nodes, double cv,
                                        std::uint64_t seed);
};

/// Epoch controls for Runtime::run: resume from carried node free times,
/// stop dispatching at a time horizon, pause on a permanent failure. The
/// defaults reproduce the one-shot run exactly (same code path).
struct EpochOptions {
  /// Initial per-node free times carried in from a previous epoch. Empty =
  /// all nodes free at 0; otherwise size must equal the machine's nodes.
  std::vector<double> initial_node_free;

  /// Tasks whose start would land at or past the horizon are deferred (left
  /// unrun, counted in RunResult::deferred) instead of scheduled.
  double horizon = std::numeric_limits<double>::infinity();

  /// When a task becomes permanently infeasible (its node set lost a node
  /// forever), pause the run — defer the task and everything after it — so
  /// a controller can reallocate, instead of cascading failure through the
  /// dependents the way the one-shot scheduler does.
  bool stop_on_failure = false;
};

/// Resumable state returned by an epoch run: what finished, where every
/// node's clock stands, and what was observed for refitting.
struct EpochState {
  /// Per-node free time after the epoch (successful task ends applied over
  /// the initial free times).
  std::vector<double> node_free;

  /// Per task id: 1 when the task ran to completion this epoch.
  std::vector<std::uint8_t> ran;

  /// Observed (task id, seconds) durations of successful non-fixed tasks —
  /// the final attempt's wall time minus communication/paging charges, i.e.
  /// the quantity the compute cost model predicts.
  std::vector<std::pair<std::size_t, double>> observed;
};

/// Outcome of a static Runtime::run.
struct RunResult {
  Trace trace;
  /// Final (successful) placement per task id; tasks that never ran have
  /// start == end == infinity.
  std::vector<ScheduledTask> tasks;
  bool completed = true;   ///< every task ran to completion
  std::size_t restarts = 0;  ///< aborted attempts re-run after the failure
  double makespan = 0.0;   ///< latest successful task end
  /// Tasks whose placement the machine rejected outright (memory overcommit
  /// on a non-paging machine, nonzero traffic on a zero-bandwidth link).
  std::size_t rejected = 0;
  double comm_seconds = 0.0;  ///< total link-serialization charge
  double page_seconds = 0.0;  ///< total paging charge
  /// Tasks left unrun by an epoch horizon or a stop_on_failure pause (their
  /// placements stay at infinity); always 0 for a one-shot run.
  std::size_t deferred = 0;
  /// The run paused at a permanently infeasible task (stop_on_failure);
  /// `completed` is false and the task id is in `paused_task`.
  bool failure_paused = false;
  std::size_t paused_task = 0;  ///< valid only when failure_paused
};

/// Outcome of a dynamic Runtime::run_queue.
struct QueueRunResult {
  Trace trace;
  /// Final placement per queue index (unrun = infinity, as in RunResult).
  std::vector<ScheduledTask> tasks;
  /// Group each queue entry ultimately ran on (undefined when unrun).
  std::vector<std::size_t> task_group;
  /// Useful busy seconds per group (aborted attempts excluded).
  std::vector<double> group_busy;
  bool completed = true;
  std::size_t restarts = 0;
  double makespan = 0.0;  ///< latest event end (>= the given start time)
  /// Queue entries no group could legally run (see RunResult::rejected).
  std::size_t rejected = 0;
  double comm_seconds = 0.0;
  double page_seconds = 0.0;
};

class Runtime {
 public:
  explicit Runtime(Machine machine);

  /// Adds a task; deps must reference earlier ids. `phase` keys the noise
  /// draw and labels the trace; `fixed` exempts the task from noise and
  /// stragglers (synchronization barriers, analytic phases); `demand` is
  /// the task's communication/memory footprint, charged and checked
  /// against the machine (zero demand = pure compute, no charge).
  std::size_t add_task(std::string name, double duration, NodeSet nodes,
                       std::vector<std::size_t> deps = {},
                       std::string phase = {}, bool fixed = false,
                       TaskDemand demand = {});

  std::size_t num_tasks() const { return tasks_.size(); }
  const Task& task(std::size_t id) const;
  const Machine& machine() const { return machine_; }

  /// Static dependency-driven execution: event-driven list scheduling (the
  /// ready task that can start earliest runs next; FIFO tie-break by id),
  /// with the perturbation applied per attempt.
  RunResult run(const Perturbation& perturbation = {}) const;

  /// Epoch execution: the same scheduler resumed from carried node free
  /// times, cut off at a horizon, and pausable on permanent failure. With
  /// default EpochOptions this is bit-identical to run(perturbation) — the
  /// one-shot path is the degenerate single epoch. `state`, when non-null,
  /// receives the resumable epoch state.
  RunResult run(const Perturbation& perturbation, const EpochOptions& epoch,
                EpochState* state = nullptr) const;

  /// A task pulled from the shared queue: duration is a function of the
  /// pulling group's node count (groups differ in size).
  struct QueueTask {
    std::string name;
    std::function<double(long long)> seconds;
    std::string phase;
    /// Communication/memory demand, checked per candidate group: a group
    /// that cannot legally run the task is skipped (not retired) and the
    /// task goes to the next free group instead.
    double comm_gb = 0.0;
    double memory_gb = 0.0;
  };

  /// Dynamic dispatch: `queue` is drained in order by the earliest-free
  /// group (ties broken by group id), all groups free at `start_time`.
  /// A group containing the failed node retires for the downtime (forever
  /// when it is infinite); its running task aborts and re-enters the queue
  /// front. Returns completed = false only when every group has retired
  /// with work remaining.
  static QueueRunResult run_queue(const Machine& machine,
                                  const std::vector<NodeSet>& groups,
                                  const std::vector<QueueTask>& queue,
                                  const Perturbation& perturbation = {},
                                  double start_time = 0.0);

 private:
  Machine machine_;
  std::vector<Task> tasks_;
};

}  // namespace hslb::sim

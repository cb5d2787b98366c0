// Generic wave-synchronized substrate engine.
//
// Many HPC workloads reduce, for allocation purposes, to one shape: W
// waves, each running every task concurrently on its own node block,
// closed by a synchronization barrier. FMO's SCC loop (one wave per SCC
// iteration, closed by the charge exchange), an FMM tree traversal (one
// wave per timestep over per-subtree tasks) and an AMReX mesh+particle
// step (per-block advance + regrid barrier) all fit. A workload may follow
// its waves with planned stages, each one epoch on slots its planner
// places on the surviving segment (its own allocation or the installed
// blocks): FMO's dimer phase is one. WaveApplication implements the full
// hslb::Application contract — Gather probes, Fit, budgeted Solve (the
// certified greedy), simulated Execute with noise/straggler/fail-stop
// perturbations through the epoch hooks (one wave or planned stage per
// epoch) — over that declarative description, so a substrate only has to
// *describe* its tasks (src/fmo, src/fmm, src/amrex) instead of
// re-implementing the engine.
//
// Determinism contract: probe noise is derived per (task index, node
// count, repetition); execution noise is keyed per (phase, task, attempt)
// by sim::Perturbation. Results are identical for every thread count, and
// an untriggered adaptive run is bit-identical to the static one because
// a static run is the same epochs with no controller
// (Application::execute); with nothing to reallocate, it ends incomplete
// at a permanent-failure pause.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hslb/budget.hpp"
#include "hslb/objective.hpp"
#include "hslb/pipeline.hpp"
#include "hslb/registry.hpp"
#include "perf/fit.hpp"
#include "perf/model.hpp"
#include "sim/epoch.hpp"
#include "sim/machine.hpp"
#include "sim/runtime.hpp"

namespace hslb {

/// One task of a wave workload.
struct WaveTask {
  std::string name;
  /// Ground-truth scaling model the simulated probes/execution sample.
  perf::Model truth;
  /// Working set (GB) spread across the task's node block: checked/charged
  /// by the machine when it models memory, and pinned into the Solve's
  /// model.
  double memory_gb = 0.0;
  /// Halo data (GB) each of the task's nodes receives per wave: charged by
  /// the machine when it models link bandwidth, and pinned into the Solve's
  /// model.
  double comm_gb = 0.0;
  /// State (GB) a rebalance moves with the task's block; 0 means the
  /// working set, memory_gb.
  double migration_gb = 0.0;
  /// Truth multiplier from wave WaveWorkload::drift_onset on: mid-run cost
  /// drift the Solve did not see.
  double drift = 1.0;
};

/// Where a planned stage runs one of its pending tasks this epoch.
struct StageSlot {
  std::size_t task = 0;  ///< index into PlannedStage::tasks
  sim::NodeSet nodes;
  /// An earlier slot of the same plan this one waits for (a chain on one
  /// block); none = it starts with the epoch.
  std::optional<std::size_t> after;
  /// The allocated task whose installed block the slot shares, charged
  /// with its busy time; none = a block of the stage's own allocation.
  std::optional<std::size_t> group;
};

/// A planned stage's epoch: slots in build order (a slot may wait only for
/// an earlier one) and its closing barrier's duration.
struct StagePlan {
  std::vector<StageSlot> slots;
  double barrier_seconds = 0.0;
};

/// What a stage planner places against: the stage's pending tasks, the
/// surviving segment (EpochCore::budget, segment and pack) and the
/// installed allocation.
struct StageView {
  std::span<const std::size_t> pending;  ///< PlannedStage::tasks indices
  const sim::EpochCore& core;
  std::span<const long long> nodes;  ///< installed nodes per allocated task
  std::span<const sim::NodeSet> blocks;  ///< their installed blocks
};

/// A stage after the waves: its own tasks as one epoch, on the slots `plan`
/// places, closed by a barrier over the segment. After a failure pause the
/// planner sees only the tasks the failure left unfinished.
struct PlannedStage {
  std::string phase;    ///< trace phase of the slots and the barrier
  std::string barrier;  ///< the barrier task's name
  std::vector<WaveTask> tasks;
  std::function<StagePlan(const StageView&)> plan;
};

/// A workload in ordered stages: the allocated tasks run `waves` waves
/// (phases "<phase>0", "<phase>1", ...), each closed by a "sync" barrier
/// of `sync_overhead` seconds; then each planned stage runs once. Gather,
/// Fit and Solve see the allocated tasks, and the Solve predicts the waves.
struct WaveWorkload {
  std::string name;
  std::vector<WaveTask> tasks;
  long long waves = 8;
  double sync_overhead = 0.05;  ///< barrier seconds per wave
  std::string phase = "wave";
  long long drift_onset = 0;  ///< first wave WaveTask::drift applies to
  std::vector<PlannedStage> stages;
};

/// The Execute step's machine and perturbations, shared by every substrate
/// on the engine (and by their dynamic baselines).
struct ExecutionOptions {
  /// Coefficient of variation of per-task execution noise. Draws are keyed
  /// by (seed, phase, task, attempt) so they are invariant to scheduling
  /// order and shared between a run and its baseline.
  double noise_cv = 0.02;
  std::uint64_t seed = 7;
  /// Machine the run is placed on. A zero-node machine (the default) means
  /// the substrate's default machine exactly covering the allocation.
  sim::Machine machine;
  /// Coefficient of variation of per-node straggler slowdown factors
  /// (>= 1, keyed off `seed`); 0 disables stragglers.
  double straggler_cv = 0.0;
  /// Fail-stop injection: `fail_node` (-1 = none) goes down at `fail_time`
  /// for `fail_downtime` seconds (infinity = permanent).
  long long fail_node = -1;
  double fail_time = 0.0;
  double fail_downtime = std::numeric_limits<double>::infinity();
};

struct WaveOptions : ExecutionOptions {
  // Gather / fit.
  long long fit_points = 5;
  double bench_noise_cv = 0.03;
  std::uint64_t bench_seed = 42;

  // Solve (the greedy, proved by hslb::certify_budget).
  Objective objective = Objective::MinMax;
  /// Pin each task's machine charges (comm_gb over link bandwidth,
  /// memory_gb against node memory) into its fitted model before the
  /// Solve. False = the compute-only model, even on machines that charge
  /// for communication and paging at execution time.
  bool machine_cost_terms = true;
};

/// The machine a run on `nodes` nodes executes on: `options.machine`
/// (which must cover them) or a plain compute-only one of that size.
sim::Machine wave_machine(const ExecutionOptions& options, long long nodes);

/// The execution perturbation `options` describe (noise, stragglers,
/// fail-stop) on a machine of `machine_nodes` nodes.
sim::Perturbation wave_perturbation(const ExecutionOptions& options,
                                    std::size_t machine_nodes);

/// Probe ceiling of `tasks` tasks sharing `nodes` nodes: Gather probes each
/// task up to it and the Solve allocates at most it, so predictions
/// interpolate (§III-C). A task can never get more than nodes - (T-1), and
/// probing past several fair shares is wasted benchmark time.
long long probe_ceiling(long long tasks, long long nodes);

/// The engine: a full Application (+ DLB BaselineReporter) over a
/// WaveWorkload. See the header comment for the execution model.
class WaveApplication : public Application, public BaselineReporter {
 public:
  WaveApplication(WaveWorkload workload, long long nodes, WaveOptions options);

  // -- Application ----------------------------------------------------------
  std::string name() const override;
  GatherPlan gather_plan() override;
  double probe(const std::string& task, long long n,
               std::uint64_t rep) override;
  SolveOutcome solve(const std::vector<std::pair<std::string, perf::FitResult>>&
                         fits) override;
  sim::Machine machine() const override { return mach_; }
  const sim::Trace* execution_trace() const override { return &core_.trace(); }
  bool execution_completed() const override { return completed_; }
  std::vector<std::pair<std::string, double>> execution_term_seconds()
      const override;

  // -- Epoch hooks (one wave or planned stage per epoch) --------------------
  bool supports_epochs() const override { return true; }
  void begin_epochs(const SolveOutcome& solution) override;
  EpochOutcome execute_epoch(std::size_t epoch) override;
  ResolveOutcome resolve(
      const std::vector<std::pair<std::string, perf::FitResult>>& fits,
      const SolveOutcome& incumbent) override;
  double migration_cost(const SolveOutcome& from,
                        const SolveOutcome& to) const override;
  double apply_allocation(const SolveOutcome& solution) override;
  /// The run's makespan.
  double finish_epochs() override;

  // -- BaselineReporter -----------------------------------------------------
  double hslb_total_seconds() override { return hslb_total_; }
  /// The waves as shared queues drained by one group per task; a workload
  /// with planned stages overrides this with its own baseline.
  double dlb_total_seconds() override;

  // -- The last run's accounting --------------------------------------------
  /// Trace, clock, restarts and machine charges.
  const sim::EpochCore& core() const { return core_; }
  /// Node count per allocated task, as last installed.
  const std::vector<long long>& installed_nodes() const { return alloc_nodes_; }
  /// Busy seconds per allocated task's block (waves and the planned slots
  /// charged to it).
  const std::vector<double>& busy_seconds() const { return busy_; }
  /// Busy node-seconds over every stage.
  double busy_node_seconds() const { return busy_node_seconds_; }
  /// Task-seconds of the waves, machine charges included.
  double wave_task_seconds() const { return task_seconds_; }
  /// Clock when the last wave closed, or when the run stopped during them.
  double waves_seconds() const { return waves_end_; }

 protected:
  /// One keyed probe-noise draw: stream, node count and repetition fix it.
  /// Streams [0, T) are the allocated tasks; a subclass probing more work
  /// uses streams from T on.
  double noisy(double true_seconds, std::size_t stream, long long n,
               std::uint64_t rep) const;
  /// Node counts Gather probes every task at.
  const std::vector<long long>& probe_counts() const { return counts_; }

 private:
  std::vector<BudgetTask> budget_tasks(
      const std::vector<std::pair<std::string, perf::FitResult>>& fits,
      long long max_nodes) const;
  /// Node count per task, in task order.
  std::vector<long long> nodes_of(const Allocation& allocation) const;
  void install(const Allocation& allocation);
  /// State GB moved if `next` were installed now.
  double migration_volume(const Allocation& next) const;
  void reset_run_state();
  /// Moves the cursor past the epoch that just closed.
  void advance();
  void run_dlb_baseline();

  WaveWorkload workload_;
  long long nodes_ = 0;
  WaveOptions options_;
  sim::Machine mach_;
  sim::Perturbation perturb_;
  long long hi_ = 0;
  std::vector<long long> counts_;
  std::unordered_map<std::string, std::size_t> index_of_;
  BudgetSolver solver_;

  // Installed layout: contiguous task blocks from the segment start.
  std::vector<long long> alloc_nodes_;
  std::vector<sim::NodeSet> blocks_;
  bool installed_ = false;

  // Run state (reset by begin_epochs).
  sim::EpochCore core_;
  std::size_t stage_ = 0;  ///< 0 = the waves, s = stages[s - 1]
  long long wave_ = 0;
  bool done_ = false;
  std::vector<char> pending_;  ///< the current epoch's unfinished tasks
  bool completed_ = true;
  std::vector<double> busy_;
  double busy_node_seconds_ = 0.0;
  double task_seconds_ = 0.0;
  double waves_end_ = 0.0;

  double hslb_total_ = 0.0;
  bool dlb_ran_ = false;
  double dlb_total_ = 0.0;
};

}  // namespace hslb

// Generic wave-synchronized substrate engine.
//
// Many HPC workloads reduce, for allocation purposes, to the same shape
// FMO's SCC loop has: W waves, each running every task concurrently on its
// own node block, closed by a synchronization barrier.  An FMM tree
// traversal (one wave per timestep over per-subtree tasks), an AMReX
// mesh+particle step (per-block advance + regrid barrier), and many bulk-
// synchronous codes all fit.  WaveApplication implements the full
// hslb::Application contract — Gather probes, Fit, budgeted Solve (greedy
// or certified greedy), simulated Execute with noise/straggler/fail-stop
// perturbations through the epoch hooks (one wave per epoch) — over a
// declarative task list, so a new substrate only has to *describe* its
// tasks (src/fmm, src/amrex) instead of re-implementing the engine.
//
// Determinism contract: probe noise is derived per (task index, node
// count, repetition); execution noise is keyed per (wave phase, task,
// attempt) by sim::Perturbation.  Results are identical for every thread
// count, and an untriggered adaptive run is bit-identical to the static
// one because a static run is the same epochs with no controller
// (Application::execute); with nothing to reallocate, it ends incomplete
// at a permanent-failure pause.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "hslb/budget.hpp"
#include "hslb/objective.hpp"
#include "hslb/pipeline.hpp"
#include "hslb/registry.hpp"
#include "minlp/bnb.hpp"
#include "perf/fit.hpp"
#include "perf/model.hpp"
#include "sim/epoch.hpp"
#include "sim/machine.hpp"
#include "sim/runtime.hpp"

namespace hslb {

/// One allocatable task of a wave workload.
struct WaveTask {
  std::string name;
  /// Ground-truth scaling model the simulated probes/execution sample.
  perf::Model truth;
  /// Working set (GB) spread across the task's node block: checked/charged
  /// by the machine when it models memory, and the task's migration volume
  /// when a rebalance moves its block.
  double memory_gb = 0.0;
};

/// A workload: T tasks x W waves, each wave closed by a sync barrier.
struct WaveWorkload {
  std::string name;
  std::vector<WaveTask> tasks;
  long long waves = 8;
  double sync_overhead = 0.05;  ///< barrier seconds per wave
};

struct WaveOptions {
  // Gather / fit.
  long long fit_points = 5;
  std::size_t repetitions = 1;
  double bench_noise_cv = 0.03;
  std::uint64_t bench_seed = 42;

  // Solve.
  Objective objective = Objective::MinMax;
  /// The MINLP path: the greedy proved by hslb::certify_budget within
  /// `bnb.gap_tol`, the one field hslb::BudgetSolver reads.
  bool solve_with_minlp = false;
  minlp::BnbOptions bnb;

  // Execute.
  double noise_cv = 0.02;
  std::uint64_t seed = 7;
  /// Machine override; a zero-node machine means "build a plain
  /// compute-only machine of the allocation's size".
  sim::Machine machine;
  double straggler_cv = 0.0;
  long long fail_node = -1;
  double fail_time = 0.0;
  double fail_downtime = std::numeric_limits<double>::infinity();
  /// DLB baseline group count; 0 = one group per task.
  std::size_t dlb_groups = 0;
};

/// The engine: a full Application (+ DLB BaselineReporter) over a
/// WaveWorkload.  See the header comment for the execution model.
class WaveApplication final : public Application, public BaselineReporter {
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

  // -- Epoch hooks (one wave per epoch) -------------------------------------
  bool supports_epochs() const override { return true; }
  void begin_epochs(const SolveOutcome& solution) override;
  EpochOutcome execute_epoch(std::size_t epoch) override;
  ResolveOutcome resolve(
      const std::vector<std::pair<std::string, perf::FitResult>>& fits,
      const SolveOutcome& incumbent) override;
  double migration_cost(const SolveOutcome& from,
                        const SolveOutcome& to) const override;
  double apply_allocation(const SolveOutcome& solution) override;
  double finish_epochs() override;

  // -- BaselineReporter -----------------------------------------------------
  double hslb_total_seconds() override { return hslb_total_; }
  double dlb_total_seconds() override;

  const WaveWorkload& workload() const { return workload_; }

 private:
  std::vector<BudgetTask> budget_tasks(
      const std::vector<std::pair<std::string, perf::FitResult>>& fits,
      long long max_nodes) const;
  double noisy(double true_seconds, std::size_t stream, long long n,
               std::uint64_t rep) const;
  /// Node count per task, in task order.
  std::vector<long long> nodes_of(const Allocation& allocation) const;
  void install(const Allocation& allocation);
  /// Working-set GB moved if `next` were installed now.
  double migration_volume(const Allocation& next) const;
  void reset_run_state();
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
  long long wave_ = 0;
  bool done_ = false;
  std::vector<char> pending_;
  bool completed_ = true;
  double task_seconds_ = 0.0;

  double hslb_total_ = 0.0;
  bool dlb_ran_ = false;
  double dlb_total_ = 0.0;
};

}  // namespace hslb

// The substrate-agnostic four-step HSLB engine (§III-F; §V's "black box"):
//
//   Gather -> Fit -> Solve -> Execute
//
// Any application plugs in via the Application interface — a benchmark
// plan, a probe function, a problem builder (Solve), and an executor (the
// epoch hooks, run with no controller unless the run is adaptive) — and
// the engine runs the four steps, parallelizing the embarrassingly
// parallel Gather and Fit stages over a fixed-size thread pool, and
// returns a PipelineReport with per-stage wall time, per-task fit R²,
// solver statistics, and the predicted-vs-actual delta.
//
// Determinism contract: probe() must derive any randomness from its
// (task, nodes, rep) arguments (see hslb::derive_seed), never from shared
// mutable state, so allocations are identical for every thread count.
// Both bundled substrates (fmo::run_pipeline, cesm::run_pipeline) and
// examples/custom_application.cpp are built on this engine.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hslb/allocation.hpp"
#include "hslb/gather.hpp"
#include "hslb/metrics.hpp"
#include "perf/fit.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"

namespace hslb::minlp {
struct BnbResult;
}

namespace hslb::perf {
/// Return type of the unread Application::fit_spec hook (see there).
struct CostModelSpec {};
}  // namespace hslb::perf

namespace hslb {

/// Per-task benchmark node counts, in the order tasks are fitted/reported.
using GatherPlan = std::vector<std::pair<std::string, std::vector<long long>>>;

/// Solver diagnostics surfaced in the report. The branch-and-bound path
/// fills node/cut counts and the bound gap; the closed-form greedy solvers
/// report zeros with their own status string.
struct SolverStats {
  std::string status = "optimal";
  std::size_t nodes = 0;  ///< B&B nodes explored
  std::size_t cuts = 0;   ///< outer-approximation cuts added
  double gap = 0.0;       ///< incumbent-vs-bound gap (0 = proven optimal)
  double rel_gap = 0.0;   ///< gap / max(1, |objective|)
  double seconds = 0.0;   ///< solver-internal wall time
  std::size_t threads = 1;     ///< solver_threads the tree search ran with
  std::size_t lp_solves = 0;   ///< LP relaxations solved
  std::size_t lp_pivots = 0;   ///< simplex pivots across all LP solves
  std::size_t warm_solves = 0; ///< LP solves that reused a prior basis
  std::size_t waves = 0;       ///< synchronized B&B node waves
  // Sparse-kernel accounting, summed over every LP solve of the run:
  // flop_reduction is dense FTRAN/BTRAN flops per unit of work the sparse
  // kernels actually performed.
  double flop_reduction = 1.0;       ///< dense / sparse kernel work ratio
  std::size_t refactorizations = 0;  ///< basis factorizations performed
  std::size_t basis_nnz = 0;         ///< last factored basis nonzeros
  std::size_t lu_fill = 0;           ///< its L+U factor nonzeros
  // Forrest-Tomlin / dual-simplex accounting, summed over every LP solve.
  std::size_t ft_updates = 0;        ///< FT column replacements applied
  std::size_t ft_fill_nnz = 0;       ///< factor nonzeros those updates added
  std::size_t refactor_interval_hits = 0;  ///< interval-backstop refactors
  std::size_t refactor_fill_hits = 0;      ///< fill-ratio-trigger refactors
  std::size_t refactor_drift_hits = 0;     ///< drift/instability refactors
  std::size_t dual_pivots = 0;       ///< pivots made by the dual simplex
  std::size_t phase1_pivots = 0;     ///< pivots made by primal phase 1
  std::size_t dual_phase1_avoided = 0;  ///< warm re-solves with no phase 1
  // Presolve / propagation / cut-lifecycle accounting.
  std::size_t presolve_rows_removed = 0;  ///< LP presolve rows, all solves
  std::size_t presolve_cols_removed = 0;  ///< LP presolve columns, all solves
  std::size_t bounds_tightened = 0;       ///< node domain-propagation hits
  std::size_t nodes_propagated_infeasible = 0;  ///< nodes pruned pre-LP
  std::size_t cuts_retired = 0;           ///< pool cuts aged out of node LPs
  std::size_t cuts_reactivated = 0;       ///< retired cuts pulled back

  /// A branch-and-bound run in report shape — the one conversion every
  /// substrate's MINLP path uses. `solver_threads` is the BnbOptions value
  /// the search ran with (0 = hardware concurrency).
  static SolverStats from_bnb(const minlp::BnbResult& bnb,
                              std::size_t solver_threads);
};

/// Predicted-vs-actual seconds attributed to one cost term (powerlaw /
/// compute / comm / memory / ...). Semantics are task-seconds summed over
/// the allocation — work volume, not makespan — so the comparison is
/// placement-independent.
struct TermReport {
  std::string term;
  double predicted_seconds = 0.0;
  double actual_seconds = 0.0;
};

/// What the Solve step hands to the Execute step.
struct SolveOutcome {
  Allocation allocation;
  /// Predicted end-to-end metric the actual run is compared against
  /// (defaults to allocation.predicted_total when left at 0).
  double predicted_total = 0.0;
  SolverStats solver;
  /// Term-wise prediction breakdown (empty = model not term-attributed).
  /// Execute-side actuals are merged in by Pipeline::run.
  std::vector<TermReport> term_predictions;
};

/// What one execution epoch reported back to the closed-loop controller
/// (hslb::Controller): progress, the monitor signals, and the observed
/// durations the refit folds into the models.
struct EpochOutcome {
  bool done = false;  ///< the run finished; no epochs remain
  /// A permanent node failure wedged the epoch: the controller must
  /// reallocate over the surviving nodes (bypasses hysteresis and the
  /// migration-aware accept test) and the application re-runs the epoch.
  bool failure_detected = false;
  double epoch_seconds = 0.0;  ///< wall time this epoch added to the run clock
  /// Busy-time imbalance across groups this epoch (max/mean - 1), the
  /// monitor's load signal.
  double imbalance = 0.0;
  /// Predicted epochs still to run — scales the per-epoch gain in the
  /// migration-aware accept test.
  double epochs_remaining = 0.0;
  /// Durations observed this epoch: (task, nodes, seconds). The controller
  /// stamps the epoch index and folds them into the refit window.
  std::vector<perf::Observed> observations;
};

/// What a warm re-solve proposes to the controller.
struct ResolveOutcome {
  SolveOutcome solution;  ///< proposed allocation from the warm re-solve
  /// The *incumbent* allocation's predicted per-epoch time under the same
  /// refitted models — the baseline the proposal's predicted_total is
  /// compared against in the accept test.
  double incumbent_predicted = 0.0;
};

/// Fit quality of one task (report row).
struct TaskFitReport {
  std::string task;
  double r2 = 0.0;
};

/// Structured per-run observability: every caller and bench can print or
/// CSV-dump this instead of re-deriving its own diagnostics.
struct PipelineReport {
  std::string application;
  std::size_t threads = 1;

  // Per-stage wall time (seconds).
  double gather_seconds = 0.0;
  double fit_seconds = 0.0;
  double solve_seconds = 0.0;
  double execute_seconds = 0.0;
  double total_seconds() const;

  std::size_t probes = 0;  ///< benchmark runs performed during Gather

  std::vector<TaskFitReport> fits;  ///< per-task fit R²
  double min_r2() const;
  double mean_r2() const;

  SolverStats solver;

  double predicted_total = 0.0;  ///< Solve's prediction
  double actual_total = 0.0;     ///< Execute's measurement
  /// (actual - predicted) / predicted; 0 when predicted is 0.
  double prediction_error() const;

  /// Machine the Execute step ran on ("name (N nodes x C cores)"); empty
  /// when the application does not describe one.
  std::string machine;
  /// Shared execution metrics (hslb::Metrics) derived from the
  /// application's trace — the one place the optimal-LB criteria of
  /// arXiv:2104.01688 are computed (zeros when no trace is exposed).
  Metrics exec;
  std::size_t exec_events = 0;
  std::size_t exec_restarts = 0;  ///< attempts aborted by a fail-stop
  bool exec_completed = true;     ///< false when a failure wedged the run

  // Closed-loop execution (hslb::Controller). A static run — and an
  // adaptive run that never trips the monitor — reports exactly one epoch
  // and zeros below, so the two reports are byte-identical.
  std::size_t epochs = 1;          ///< allocation regimes executed (rebalances + 1)
  std::size_t rebalances = 0;      ///< accepted mid-run reallocations
  double migration_seconds = 0.0;  ///< total stall charged by migrations

  /// Term-wise predicted vs actual task-seconds: Solve's term_predictions
  /// merged with the application's execution_term_seconds() by term name.
  std::vector<TermReport> terms;
  /// Predicted/actual seconds of a named term (0 when not reported).
  double term_predicted(const std::string& term) const;
  double term_actual(const std::string& term) const;

  /// Human-readable multi-line rendering (what `hslb fmo/cesm` print).
  std::string str() const;

  /// One-line CSV dump (see csv_header) for bench sweeps.
  static std::string csv_header();
  std::string csv_row() const;
};

/// The substrate interface: implement these hooks and Pipeline::run does
/// the orchestration. Hooks are called in order: gather_plan, probe (many
/// times, possibly concurrently), fit_options, solve, execute.
class Application {
 public:
  virtual ~Application() = default;

  /// Label used in reports.
  virtual std::string name() const = 0;

  // -- Gather ---------------------------------------------------------------
  virtual GatherPlan gather_plan() = 0;

  /// One benchmark probe: task at `nodes`, repetition `rep`. MUST be
  /// thread-safe and order-independent (derive randomness from the
  /// arguments; see the determinism contract above).
  virtual double probe(const std::string& task, long long nodes,
                       std::uint64_t rep) = 0;

  // -- Fit ------------------------------------------------------------------
  virtual perf::FitOptions fit_options() const { return {}; }

  // -- Solve ----------------------------------------------------------------
  virtual SolveOutcome solve(
      const std::vector<std::pair<std::string, perf::FitResult>>& fits) = 0;

  // -- Execute --------------------------------------------------------------
  /// Runs the application under the allocation; returns the actual value of
  /// the metric `SolveOutcome::predicted_total` predicts. The default is the
  /// epoch loop with no controller: begin_epochs, then execute_epoch until
  /// it reports done or a permanent-failure pause (with nothing to
  /// reallocate, the run then ends incomplete), then finish_epochs.
  /// Requires supports_epochs().
  virtual double execute(const SolveOutcome& solution);

  /// Machine the Execute step runs on; a zero-node machine (the default)
  /// means "not described" and is omitted from the report.
  virtual sim::Machine machine() const { return {}; }

  /// Per-task execution trace of the last execute() call, or nullptr when
  /// the application does not record one. The pointer must stay valid
  /// until the next execute() call.
  virtual const sim::Trace* execution_trace() const { return nullptr; }

  /// False when the last execute() could not finish (e.g. a permanent
  /// node failure under a static schedule).
  virtual bool execution_completed() const { return true; }

  /// Actual task-seconds of the last execute() attributed per cost term
  /// (e.g. {"powerlaw", ...}, {"comm", ...}); empty when the application
  /// does not attribute execution time. Merged into PipelineReport::terms.
  virtual std::vector<std::pair<std::string, double>> execution_term_seconds()
      const {
    return {};
  }

  // -- Epoch execution (static and closed loop) -----------------------------
  // Substrates that can run Execute as a sequence of epochs implement the
  // hooks below. The default execute() runs them with no controller; an
  // adaptive run hands them to hslb::Controller, which drives monitor ->
  // refit -> warm re-solve -> migrate between epochs. An application that
  // implements none of them must override execute().

  /// True when the epoch hooks are implemented: the default execute()
  /// requires it, and an adaptive Pipeline run routes Execute through
  /// hslb::Controller only when it holds.
  virtual bool supports_epochs() const { return false; }

  /// Never read: the Fit step always fits the power law (perf::fit). Kept
  /// declared only because perfbench's TracedApplication overrides it.
  virtual perf::CostModelSpec fit_spec() const { return {}; }

  /// Prepares epoch execution under the initial allocation. Called once,
  /// before the first execute_epoch.
  virtual void begin_epochs(const SolveOutcome& solution) { (void)solution; }

  /// Runs the next epoch under the allocation most recently installed by
  /// begin_epochs / apply_allocation. `epoch` is the caller's monotone call
  /// counter (used to stamp observations); the application keeps its own
  /// progress cursor — after a failure_detected pause it re-runs the
  /// wedged work on the next call, and when a failure is unrecoverable it
  /// reports done with execution_completed() false. An epoch split must
  /// align with the run's synchronization barriers so that the schedule
  /// does not depend on where the epochs are cut.
  virtual EpochOutcome execute_epoch(std::size_t epoch) {
    (void)epoch;
    return {};
  }

  /// Warm re-solve against refitted models. Implementations should seed
  /// their solver from `incumbent` (minlp_warm_start, BnbOptions seeds) so
  /// the re-solve reuses what the previous search learned.
  virtual ResolveOutcome resolve(
      const std::vector<std::pair<std::string, perf::FitResult>>& fits,
      const SolveOutcome& incumbent) {
    (void)fits;
    return ResolveOutcome{incumbent, incumbent.predicted_total};
  }

  /// Predicted stall (seconds) of migrating from `from` to `to` mid-run —
  /// bytes moved over link bandwidth (sim::Machine::migration_seconds).
  virtual double migration_cost(const SolveOutcome& from,
                                const SolveOutcome& to) const {
    (void)from;
    (void)to;
    return 0.0;
  }

  /// Installs `solution` for subsequent epochs; returns the migration
  /// seconds actually charged to the run clock.
  virtual double apply_allocation(const SolveOutcome& solution) {
    (void)solution;
    return 0.0;
  }

  /// Ends epoch execution; returns the actual value of the metric
  /// SolveOutcome::predicted_total predicts (execute()'s return). A run
  /// stopped before execute_epoch reported done ends incomplete.
  virtual double finish_epochs() { return 0.0; }
};

/// When and how the closed-loop controller rebalances a running
/// application. `adaptive = false` (the default) runs Execute statically:
/// the allocation the Solve step chose, never rebalanced.
struct RebalancePolicy {
  bool adaptive = false;  ///< route Execute through hslb::Controller
  /// Rebalance when an epoch's busy-time imbalance (max/mean - 1) exceeds
  /// this...
  double imbalance_threshold = 0.25;
  /// ...or when the mean relative prediction error over the refit window
  /// exceeds this.
  double drift_threshold = 0.10;
  /// Hysteresis: epochs that must pass after an accepted rebalance before
  /// the monitor may trip again (failure triggers bypass the gate).
  std::size_t min_epoch_gap = 1;
  /// Monitored-epoch cap: 0 monitors every epoch; otherwise triggers are
  /// only evaluated during the first max_epochs epochs (execution always
  /// continues to completion).
  std::size_t max_epochs = 0;
  /// Observation window (epochs) folded into each refit.
  std::size_t refit_window = 4;
  /// Replication weight of one observed duration against one gather probe
  /// (perf::fold_observations).
  double observation_weight = 4.0;
  /// Accept a proposal only when predicted gain x remaining epochs exceeds
  /// its migration stall (failures bypass the test).
  bool migration_aware = true;
};

struct PipelineOptions {
  /// Worker threads for Gather, Fit and the closed loop's refits; 0 =
  /// hardware concurrency.
  std::size_t threads = 1;
  std::size_t gather_repetitions = 1;  ///< timed runs per (task, node count)
  /// Closed-loop rebalancing policy. Takes effect only when
  /// `rebalance.adaptive` is set AND the application supports epochs; a
  /// static run is the degenerate one-epoch case of the same machinery.
  RebalancePolicy rebalance;
};

/// Everything a run produced, stage by stage.
struct PipelineRun {
  perf::BenchTable bench;  ///< Gather output
  std::vector<std::pair<std::string, perf::FitResult>> fits;  ///< Fit output
  SolveOutcome solution;   ///< Solve output
  double actual_total = 0.0;  ///< Execute output
  /// Execute-step trace (empty when the application records none).
  sim::Trace trace;
  PipelineReport report;
};

class ThreadPool;

/// The engine. Stateless apart from its options: run() may be called
/// repeatedly — on the same Application or different ones — and each call
/// builds its own thread pool and PipelineRun from scratch, sharing no
/// state with previous calls. Two runs over the same (deterministic)
/// application and options therefore produce identical results; only the
/// wall-time fields differ.
class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = {});

  PipelineRun run(Application& app) const;

  /// Same engine over a caller-owned pool, so long-running hosts (the
  /// allocation service) can batch many pipeline runs onto one set of
  /// workers. Safe to call concurrently from several threads with the
  /// same pool — overlapping runs serialize their parallel stages through
  /// the pool (see ThreadPool::parallel_for) and each computes exactly
  /// what it would have computed alone. `options_.threads` is ignored;
  /// the pool's size is reported instead.
  PipelineRun run(Application& app, ThreadPool& pool) const;

 private:
  PipelineOptions options_;
};

}  // namespace hslb

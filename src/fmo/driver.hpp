// End-to-end FMO pipeline: the four HSLB steps (§III-F) wired to the FMO
// substrate, plus the DLB baseline for comparison.
//
//   1. Gather  — probe every fragment's monomer SCF at a few group sizes
//                (noisy observations of the ground-truth cost model);
//   2. Fit     — per-fragment performance models (variable-projection
//                least squares, R^2 diagnostics);
//   3. Solve   — min-max node allocation over the fitted models (the
//                exact greedy, proved by hslb::certify_budget);
//   4. Execute — run the simulated FMO2 calculation under the static
//                allocation; run the DLB baseline on the same system.
#pragma once

#include <memory>

#include "fmo/cost.hpp"
#include "fmo/molecule.hpp"
#include "fmo/schedulers.hpp"
#include "hslb/budget.hpp"
#include "hslb/gather.hpp"
#include "hslb/objective.hpp"
#include "hslb/pipeline.hpp"
#include "perf/fit.hpp"

namespace hslb::fmo {

struct PipelineOptions {
  /// Gather: node counts per fragment (geometric between 1 and the
  /// per-fragment probe ceiling) and repeated measurements per count.
  std::size_t fit_points = 5;
  std::size_t repetitions = 1;
  /// Noise applied to gather probes (benchmark runs are noisy too).
  double bench_noise_cv = 0.03;
  std::uint64_t seed = 42;

  Objective objective = Objective::MinMax;

  /// Number of representative SCF dimers probed during Gather (spread over
  /// the combined-size range); models for the remaining dimers are scaled
  /// from the nearest probed size. 0 disables dimer probing (the dimer
  /// phase then falls back to size-proxy ECT on the monomer groups).
  std::size_t dimer_probe_count = 8;

  /// Solve with machine-derived cost terms: when the run machine models
  /// link bandwidth or node memory (sim::Machine), each fragment's fitted
  /// compute model is extended with pinned comm (halo volume times SCF
  /// neighbour count over link bandwidth) and memory (working set against
  /// node capacity) terms before the Solve step. False = the paper's
  /// compute-only model, even on machines that charge for communication
  /// and paging at execution time.
  bool machine_cost_terms = true;

  /// Execution options (shared by the HSLB run and the DLB baseline).
  RunOptions run;
  /// DLB baseline group count; 0 means one group per fragment.
  std::size_t dlb_groups = 0;

  /// Worker threads for the monomer Gather and Fit stages (0 = hardware
  /// concurrency); the dimer probes and their fits always run serially.
  /// Allocations are identical for every thread count: probe noise is
  /// derived per (fragment, node count, repetition).
  std::size_t threads = 1;

  /// Closed-loop rebalancing (hslb::Controller): when `rebalance.adaptive`
  /// is set, the Execute step runs epoch by epoch (one SCC iteration per
  /// epoch, then the dimer phase) and the monitor -> refit -> warm
  /// re-solve -> migrate loop reacts to stragglers, cost drift and node
  /// failures. Off (the default), or on but never triggered, the run is
  /// bit-identical to the static pipeline.
  RebalancePolicy rebalance;
};

struct PipelineResult {
  perf::BenchTable bench;  ///< Gather output (monomer probes)
  std::vector<std::pair<std::string, perf::FitResult>> fits;
  Allocation allocation;   ///< Solve output: nodes per fragment

  /// Predicted models for every SCF dimer (from the probed subset), used
  /// by the Execute step's dimer-wave re-partition.
  DimerPredictions dimer_predictions;
  double dimer_min_r2 = 1.0;  ///< fit quality over the probed dimers

  /// Predicted SCC-loop seconds (the phase the allocation optimizes):
  /// scc_iterations * (predicted wave + sync overhead).
  double predicted_scc_seconds = 0.0;

  ExecutionResult hslb;  ///< Execute under the static allocation
  ExecutionResult dlb;   ///< stock dynamic baseline

  /// Fit-quality summary over fragments.
  double min_r2 = 0.0;
  double mean_r2 = 0.0;

  /// Per-stage instrumentation from the hslb::Pipeline engine (stage wall
  /// times, per-fragment R², solver stats, predicted-vs-actual SCC).
  /// Adaptive runs also fill report.epochs/rebalances/migration_seconds.
  PipelineReport report;

  /// Solver diagnostics of every warm re-solve the closed-loop controller
  /// ran (empty for static runs and for adaptive runs that never tripped).
  std::vector<SolverStats> resolve_stats;
};

/// Runs the full pipeline on `nodes` nodes via the shared hslb::Pipeline
/// engine. Requires nodes >= #fragments (HSLB gives every fragment at
/// least one node).
PipelineResult run_pipeline(const System& sys, const CostModel& cost,
                            long long nodes, const PipelineOptions& options = {});

/// The FMO substrate as a self-contained hslb::Application — the wave
/// engine (hslb::WaveApplication) over hslb_workload, owning copies of its
/// inputs — for registry-driven pipelines. Also implements
/// hslb::BaselineReporter (HSLB vs DLB totals). A run through the shared
/// engine with equal options produces results bit-identical to
/// run_pipeline.
std::shared_ptr<Application> make_application(System sys, CostModel cost,
                                              long long nodes,
                                              PipelineOptions options = {});

/// The Solve step in isolation: budget tasks from fitted models.
/// Probe ceiling / model validity range is [1, max_nodes_per_fragment].
std::vector<BudgetTask> make_budget_tasks(
    const System& sys,
    const std::vector<std::pair<std::string, perf::FitResult>>& fits,
    long long max_nodes_per_fragment);

/// Per-fragment probe ceiling used by Gather (also the per-fragment upper
/// bound in the Solve step, so predictions interpolate rather than
/// extrapolate, as §III-C recommends).
long long probe_ceiling(const System& sys, long long nodes);

}  // namespace hslb::fmo

// FMO execution schedulers: the dynamic-load-balancing baseline (stock
// GAMESS/GDDI behaviour) and the HSLB static schedule.
//
// Both simulate a full FMO2 run:
//   1. the monomer SCC loop — `scc_iterations` rounds; in each round every
//      fragment's monomer SCF must complete, followed by a global
//      synchronization (charge exchange);
//   2. one dimer phase — all SCF dimers plus the aggregated ES dimers.
//
// DLB: equal-size groups pull fragments from a shared counter (largest
// first), exactly the regime where "the number of tasks is much smaller
// than the number of processors" defeats dynamic balancing (§I).
//
// HSLB: one group per fragment, sized by the min-max MINLP solution; every
// SCC round is a single concurrent wave. For the dimer phase the machine
// is re-partitioned (GDDI allows re-splitting groups between phases): when
// predicted dimer models are available and the dimers fit, a second
// min-max allocation runs all SCF dimers as one concurrent wave; otherwise
// dimers are statically assigned to the monomer groups by predicted
// earliest completion time.
//
// The HSLB schedule runs on the shared wave engine (hslb::WaveApplication):
// hslb_workload maps the system to a wave workload — the fragments as
// `scc_iterations` waves, then a planned dimer stage whose slots
// DimerStage places. The closed-loop controller drives it epoch by epoch,
// and run_hslb is the same engine with no controller (one allocation,
// stopped at a permanent-failure pause), so static and adaptive runs share
// one schedule by construction.
#pragma once

#include <memory>
#include <vector>

#include "fmo/cost.hpp"
#include "fmo/energy.hpp"
#include "fmo/fragment.hpp"
#include "fmo/gddi.hpp"
#include "hslb/allocation.hpp"
#include "hslb/waveapp.hpp"
#include "perf/model.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"

namespace hslb::fmo {

/// The run's machine and perturbations (ExecutionOptions: a zero-node
/// machine means an Intrepid-like partition exactly covering the layout),
/// plus the FMO schedule's shape.
struct RunOptions : ExecutionOptions {
  int scc_iterations = 10;
  /// Per-iteration global synchronization / charge-exchange overhead (s).
  double sync_overhead = 0.05;

  /// Mid-run cost drift: per-fragment multipliers (size = #fragments)
  /// applied to the true monomer cost from SCC iteration `drift_onset`
  /// onwards; empty = no drift. Every scheduler (static HSLB, DLB, the
  /// adaptive run) sees the same drifted truth, so adaptive gains come from
  /// reacting, not from a different workload.
  std::vector<double> task_scale;
  int drift_onset = 0;
};

struct ExecutionResult {
  double total_seconds = 0.0;
  double scc_seconds = 0.0;    ///< monomer loop including syncs
  double dimer_seconds = 0.0;  ///< dimer phase including ES contribution
  int scc_iterations = 0;

  /// Busy seconds of each *monomer-phase* group (work time only).
  std::vector<double> group_busy;
  /// Node count of each monomer-phase group.
  std::vector<long long> group_nodes;
  /// Busy node-seconds over the whole run (both phases).
  double busy_node_seconds = 0.0;

  /// FMO2 energy assembled *during execution* (monomer terms on the final
  /// SCC iteration, dimer corrections as the dimer phase is built, ES tail
  /// at the end; a run stopped early adds the terms it never built). Load
  /// balancing must not change the chemistry: both schedulers report the
  /// same energy as the pure fmo2_energy() reference (up to floating-point
  /// summation order).
  EnergyBreakdown energy;

  /// Per-attempt execution trace over both phases. Synchronization events
  /// and the analytic ES-dimer tail appear in the trace but are excluded
  /// from group_busy / busy_node_seconds (they are overhead, not work).
  sim::Trace trace;
  /// False when a permanent node failure stopped the run before it was
  /// done (the static schedule stops at the failure pause).
  bool completed = true;
  /// Attempts aborted by the fail-stop and re-run.
  std::size_t restarts = 0;

  /// Communication / paging charges the machine levied over the whole run
  /// (zero on machines that model neither — the compute-only regime).
  double comm_seconds = 0.0;
  double page_seconds = 0.0;
  /// Monomer (SCC-phase) task-seconds including those charges: the actual
  /// the fitted per-fragment models predict, term-attributed in the
  /// pipeline report.
  double monomer_task_seconds = 0.0;

  /// Node-weighted parallel efficiency: busy node-seconds over
  /// total-node-seconds of the whole run.
  double efficiency(long long total_nodes) const;

  /// Monomer-phase busy-time imbalance across groups: max/mean - 1.
  double group_imbalance() const;
};

/// Predicted performance models for the SCF dimers, parallel to
/// System::scf_dimers. Produced by the pipeline's dimer probing; an empty
/// `models` vector disables the dimer-wave re-partition.
struct DimerPredictions {
  std::vector<perf::Model> models;
};

/// Stock dynamic load balancing over `layout` equal (or given) groups.
ExecutionResult run_dlb(const System& sys, const CostModel& cost,
                        const GroupLayout& layout, const RunOptions& options);

/// HSLB static execution on `total_nodes` nodes: `allocation` must contain
/// one entry per fragment (task names = fragment names) giving its group's
/// node count. `dimers` optionally carries predicted dimer models (see
/// DimerPredictions). Runs the wave engine with no controller until it is
/// done or a permanent failure pauses it; a paused run ends incomplete.
ExecutionResult run_hslb(const System& sys, const CostModel& cost,
                         const Allocation& allocation, long long total_nodes,
                         const DimerPredictions& dimers,
                         const RunOptions& options);

/// Convenience overload without dimer predictions (ECT fallback policy).
ExecutionResult run_hslb(const System& sys, const CostModel& cost,
                         const Allocation& allocation, long long total_nodes,
                         const RunOptions& options);

// -- The HSLB schedule on hslb::WaveApplication ------------------------------

/// FMO's side of the dimer stage: it places the pending SCF dimers and
/// builds the FMO2 energy as they are built. Owns the system and cost model
/// the schedule runs.
class DimerStage {
 public:
  DimerStage(System sys, CostModel cost);

  const System& system() const { return sys_; }
  const CostModel& cost() const { return cost_; }

  /// Starts a run: `predictions` (empty = ECT) steer the placement, and no
  /// dimer energy is built yet.
  void begin(DimerPredictions predictions);

  /// Places the pending dimers (hslb::PlannedStage::plan). When predicted
  /// models exist and the pending dimers fit the budget: a min-max
  /// re-split over their predicted models, blocks packed from the segment
  /// start. Otherwise: chains on the installed fragment blocks by
  /// predicted earliest completion time, longest dimer first. The barrier
  /// is the ES-dimer tail at the surviving budget. Each dimer's energy
  /// correction is built the first time it is placed.
  StagePlan plan(const StageView& view);

  /// The FMO2 energy: the monomer terms, the dimer corrections in build
  /// order and then those never built, the ES tail. A run stopped early
  /// still reports the full sum.
  EnergyBreakdown energy() const;

 private:
  System sys_;
  CostModel cost_;
  DimerPredictions predictions_;
  std::vector<char> built_;
  double scf_dimer_ = 0.0;
};

/// The HSLB schedule as a staged wave workload: one task per fragment
/// (its monomer cost, drift, halo and working set) over `scc_iterations`
/// waves in phases "scc<i>", then the "dimer" stage placed by `dimers` and
/// closed by the "es-dimers" tail.
WaveWorkload hslb_workload(const std::shared_ptr<DimerStage>& dimers,
                           const RunOptions& options);

/// The wave engine's options for `options` on `total_nodes` nodes, the
/// default machine resolved (see RunOptions).
WaveOptions execution_options(const RunOptions& options,
                              long long total_nodes);

/// The ExecutionResult of the run `app` (built by hslb_workload over
/// `dimers`) just finished.
ExecutionResult hslb_result(const WaveApplication& app,
                            const RunOptions& options,
                            const DimerStage& dimers);

}  // namespace hslb::fmo

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
// The HSLB schedule exists once, in EpochRunner: the closed-loop
// controller drives it epoch by epoch, and run_hslb is the same runner
// with no controller (one allocation, stopped at a permanent-failure
// pause), so static and adaptive runs share one schedule by construction.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "fmo/cost.hpp"
#include "fmo/energy.hpp"
#include "fmo/fragment.hpp"
#include "fmo/gddi.hpp"
#include "hslb/allocation.hpp"
#include "hslb/pipeline.hpp"
#include "perf/fit.hpp"
#include "perf/model.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"

namespace hslb::fmo {

struct RunOptions {
  int scc_iterations = 10;
  /// Per-iteration global synchronization / charge-exchange overhead (s).
  double sync_overhead = 0.05;
  /// Coefficient of variation of per-task execution noise. Draws are keyed
  /// by (seed, phase, task, attempt) so they are invariant to scheduling
  /// order and shared between HSLB and DLB runs of the same system.
  double noise_cv = 0.02;
  std::uint64_t seed = 7;

  /// Machine the run is placed on. A zero-node machine (the default) means
  /// "derive an Intrepid-like partition exactly covering the layout".
  sim::Machine machine;
  /// Coefficient of variation of per-node straggler slowdown factors
  /// (>= 1, keyed off `seed`); 0 disables stragglers.
  double straggler_cv = 0.0;
  /// Fail-stop injection: `fail_node` (-1 = none) goes down at `fail_time`
  /// for `fail_downtime` seconds (infinity = permanent).
  long long fail_node = -1;
  double fail_time = 0.0;
  double fail_downtime = std::numeric_limits<double>::infinity();

  /// Mid-run cost drift: per-fragment multipliers (size = #fragments)
  /// applied to the true monomer cost from SCC iteration `drift_onset`
  /// onwards; empty = no drift. Every scheduler (static HSLB, DLB, the
  /// adaptive epoch runner) sees the same drifted truth, so adaptive gains
  /// come from reacting, not from a different workload.
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
/// DimerPredictions). Runs an EpochRunner with no controller until it is
/// done or a permanent failure pauses it; a paused run ends incomplete.
ExecutionResult run_hslb(const System& sys, const CostModel& cost,
                         const Allocation& allocation, long long total_nodes,
                         const DimerPredictions& dimers,
                         const RunOptions& options);

/// Convenience overload without dimer predictions (ECT fallback policy).
ExecutionResult run_hslb(const System& sys, const CostModel& cost,
                         const Allocation& allocation, long long total_nodes,
                         const RunOptions& options);

/// Epoch-by-epoch HSLB execution: each step() runs one SCC iteration (one
/// concurrent wave + its sync barrier), and the final step runs the dimer
/// phase plus the ES tail, all on a sim::EpochCore.
///
/// On a permanent node failure the epoch pauses (failure_detected): the
/// caller re-solves over budget() — the largest contiguous surviving node
/// segment — installs the new allocation (install), charges the stall
/// (migrate), and the next step() re-runs only the work the failure left
/// unfinished, with barriers packed inside the surviving segment.
class EpochRunner {
 public:
  EpochRunner(const System& sys, const CostModel& cost, long long total_nodes,
              const DimerPredictions& dimers, const RunOptions& options);
  ~EpochRunner();

  /// Installs `allocation` (one entry per fragment) for subsequent epochs:
  /// fragment groups occupy contiguous blocks in fragment order from the
  /// surviving segment's start. Must be called once before the first
  /// step() and after every accepted rebalance.
  void install(const Allocation& allocation);

  /// Runs the next epoch (or re-runs what a failure left unfinished).
  /// Observations are monomer compute seconds, machine charges excluded;
  /// the epoch stamp is left to the controller.
  EpochOutcome step();

  /// Charges a mid-run migration of `volume_gb` to the run clock
  /// (sim::Machine::migration_seconds) and records a fixed "migrate" trace
  /// event over the surviving segment. Returns the stall in seconds.
  double migrate(double volume_gb);

  /// Data volume (GB) a switch to `next` would move: the working set of
  /// every fragment whose absolute node block would change (memory_gb, or
  /// an nbf^2 density-matrix estimate when the fragment models no memory).
  double migration_volume(const Allocation& next) const;

  /// Nodes currently available for allocation: the run's node budget,
  /// clipped to the largest contiguous segment a permanent failure left.
  long long budget() const;

  const sim::Machine& machine() const;

  /// Finalizes accounting and returns the accumulated execution result.
  /// Call once: after step() reported done, or to stop the run early (the
  /// result is then incomplete, its scc_seconds the clock if it stopped in
  /// the SCC phase, and its energy still the full FMO2 sum).
  ExecutionResult finish();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace hslb::fmo

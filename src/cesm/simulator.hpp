// The simulated CESM run: stands in for "submit to the Intrepid queue and
// wait" (§II: five to ten manual iterations of exactly that is what HSLB
// eliminates).
//
// Component wall-clock times come from the calibrated ground-truth curves
// (data.hpp) perturbed by run-to-run noise. The sea-ice component gets a
// larger noise level, reproducing §IV-A's observation that CICE's
// decomposition/block-size variability made its timings noisy and its fit
// worse than the others.
#pragma once

#include <array>
#include <cstdint>

#include "cesm/data.hpp"
#include "cesm/layouts.hpp"
#include "hslb/pipeline.hpp"
#include "sim/epoch.hpp"
#include "sim/machine.hpp"
#include "sim/runtime.hpp"
#include "sim/trace.hpp"

namespace hslb::cesm {

struct SimulatorOptions {
  double noise_cv = 0.02;      ///< run-to-run noise for lnd/atm/ocn
  double ice_noise_cv = 0.06;  ///< extra-noisy CICE timings (§IV-A)
  std::uint64_t seed = 11;
};

/// Immutable after construction: every draw is keyed, so one Simulator may
/// serve concurrent probes and runs.
class Simulator {
 public:
  Simulator(Resolution r, SimulatorOptions options = {});

  /// One benchmark probe: component `c` run on `nodes` nodes, repetition
  /// `rep`. The noise draw is derived from (seed, component, nodes, rep)
  /// only, so concurrent probes return identical values for every thread
  /// count and call order.
  double benchmark_at(Component c, long long nodes, std::uint64_t rep) const;

  /// Noise-free component time (for oracle comparisons in tests/benches).
  double true_seconds(Component c, long long nodes) const;

  Resolution resolution() const { return resolution_; }

  /// Result of an event-driven coupled run (see run_coupled).
  struct CoupledRun {
    std::array<double, 4> component_seconds{};  ///< summed over intervals
    double total_seconds = 0.0;                 ///< makespan with barriers
    int intervals = 0;
    std::size_t events = 0;  ///< trace events (one per component interval)
    /// total_seconds minus the barrier-free layout total: the time lost to
    /// per-interval synchronization under run-to-run noise.
    double coupling_loss_seconds = 0.0;

    /// Per-interval execution trace on machine_for(layout, nodes).
    sim::Trace trace;
    bool completed = true;   ///< false when a permanent failure wedged it
    std::size_t restarts = 0;
  };

  /// The machine a coupled run occupies: the layout's processor blocks
  /// packed contiguously (Figure 1) on Intrepid-like nodes.
  static sim::Machine machine_for(Layout layout,
                                  const std::array<long long, 4>& nodes);

  /// Node count the layout's packed blocks occupy (machine_for's size).
  static long long layout_width(Layout layout,
                                const std::array<long long, 4>& nodes);

  /// Per-component processor blocks of a layout, packed from node `offset`
  /// (Figure 1). Exposed so the closed-loop chunk runner can re-place a
  /// re-solved allocation inside a surviving node segment.
  static std::array<sim::NodeSet, 4> blocks_for(
      Layout layout, const std::array<long long, 4>& nodes,
      std::size_t offset);

  /// Simulates the run the way the coupler actually drives it: the 5-day
  /// simulation is split into `intervals` coupling periods; within each
  /// period the components execute under the layout's sequencing as a task
  /// graph on the sim::Runtime, and a coupler barrier joins everything
  /// before the next period. With noisy per-period times the barriers cost
  /// real time that the paper's wall-clock formula (layout_total) cannot
  /// see — run_coupled measures that loss. Per-interval durations are keyed
  /// (order-independent) draws; `perturb` adds stragglers and fail-stop on
  /// top (its own noise_cv is usually left 0). This is CoupledChunkRunner
  /// on machine_for(layout, nodes) in one chunk with no controller: a
  /// permanent failure stops the run at its pause, incomplete.
  CoupledRun run_coupled(Layout layout, const std::array<long long, 4>& nodes,
                         int intervals = 24,
                         const sim::Perturbation& perturb = {}) const;

 private:
  Resolution resolution_;
  SimulatorOptions options_;
};

/// The coupled run, chunk by chunk: each step() runs a chunk of coupling
/// intervals on a sim::EpochCore. The coupler barrier joins every node, so
/// the schedule, trace and accounting do not depend on the chunk size
/// (per-interval durations are keyed by the absolute interval index, which
/// the chunk split preserves): Simulator::run_coupled is one chunk, a
/// static pipeline run intervals_per_epoch-sized chunks with no
/// controller, an adaptive run the same chunks under hslb::Controller.
///
/// On a permanent node failure the chunk pauses (failure_detected): the
/// caller re-solves the layout over budget() — the largest contiguous
/// surviving segment — installs the new allocation, charges the stall
/// (migrate), and the next step() re-runs only the component intervals the
/// failure left unfinished, with blocks packed inside the segment.
class CoupledChunkRunner {
 public:
  /// `machine` is the partition the run occupies (machine_for, optionally
  /// with finite link bandwidth so migration has a price); `perturb` adds
  /// stragglers / fail-stop on top of the keyed per-interval noise.
  CoupledChunkRunner(const Simulator& sim, Layout layout, int intervals,
                     int intervals_per_epoch, sim::Machine machine,
                     sim::Perturbation perturb);

  /// Installs `nodes` for subsequent chunks: blocks packed from the
  /// surviving segment's start. Must be called once before the first
  /// step() and after every accepted rebalance.
  void install(const std::array<long long, 4>& nodes);

  /// Runs the next chunk (or re-runs what a failure left unfinished). Its
  /// imbalance is max/mean - 1 over the layout's two parallel block paths
  /// (the atmosphere-group chain vs the ocean; 0 for the fully sequential
  /// layout); each completed component interval is observed scaled back to
  /// a full-run time, commensurable with the fitted models.
  EpochOutcome step();

  /// Charges a mid-run migration of `volume_gb` to the run clock and
  /// records a "migrate" trace event over the surviving segment. Returns
  /// the stall in seconds.
  double migrate(double volume_gb) { return core_.migrate(volume_gb); }

  /// Data volume (GB) a switch to `next` would move: `gb_per_node` for
  /// every node of a component whose processor block would change.
  double migration_volume(const std::array<long long, 4>& next,
                          double gb_per_node) const;

  /// Nodes available for re-solving: the machine, clipped to the largest
  /// contiguous segment a permanent failure left.
  long long budget() const { return core_.budget(); }

  const sim::Machine& machine() const { return core_.machine(); }

  /// Finalizes accounting (same shape run_coupled returns). Call once:
  /// after step() reported done, or to stop the run early (it is then
  /// incomplete).
  Simulator::CoupledRun finish();

 private:
  const Simulator* sim_;
  Layout layout_;
  int intervals_;
  int chunk_;
  sim::EpochCore core_;

  std::array<long long, 4> nodes_{};
  std::array<sim::NodeSet, 4> blocks_{};
  bool installed_ = false;

  int cursor_ = 0;  ///< first interval not yet fully completed
  std::vector<std::array<char, 4>> pending_;  ///< [interval][component]
  bool done_ = false;

  Simulator::CoupledRun out_;
};

}  // namespace hslb::cesm

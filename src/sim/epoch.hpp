// Epoch execution on the surviving node segment: the machinery both
// runners share (hslb::WaveApplication, which runs FMO, FMM and AMReX, and
// cesm::CoupledChunkRunner), static and closed-loop runs alike. A runner
// keeps only its task graph, its accounting and its rule for giving up;
// EpochCore owns the rest.
//
// Each epoch runs on a fresh sim::Runtime whose node clocks all start at
// the carried run clock. Epochs end at barriers that join every node, so
// the schedule does not depend on where the epochs are cut (noise draws
// are keyed by phase, task and attempt, which the split preserves), and a
// closed-loop run that never rebalances is the static run. A permanent
// node failure pauses the epoch: the core confines the run to the larger
// contiguous segment either side of the failed node (ties keep the low
// half, so layouts stay anchored at the machine front) and advances the
// clock past all in-flight work there. A static run (no controller) stops
// at the pause, incomplete. Under the controller the runner re-solves
// over budget(), installs blocks packed from the segment start (pack),
// charges the stall (migrate), and re-runs only the work the failure left
// unfinished, with barriers confined to the segment.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.hpp"
#include "sim/runtime.hpp"
#include "sim/trace.hpp"

namespace hslb::sim {

/// One task of a barrier-closed wave (EpochCore::run_wave).
struct WaveSlot {
  std::string name;
  double seconds = 0.0;  ///< unperturbed duration on `nodes`
  NodeSet nodes;
  TaskDemand demand;
  /// An earlier slot this one waits for (a chain of tasks on one block);
  /// none = it starts with the epoch.
  std::optional<std::size_t> after;
};

/// What one barrier-closed wave did.
struct WaveRun {
  /// (slot index, seconds) of every slot that ran to completion, in slot
  /// order.
  std::vector<std::pair<std::size_t, double>> ran;
  /// (slot index, compute seconds) of the same slots: wall time minus the
  /// machine's comm/paging charges (EpochState::observed).
  std::vector<std::pair<std::size_t, double>> observed;
  bool failure = false;    ///< a permanent failure paused the wave
  double imbalance = 0.0;  ///< max/mean - 1 of `ran` (0 after a failure)
};

class EpochCore {
 public:
  /// run()'s default barrier: the clock moves to the epoch's makespan.
  static constexpr std::size_t kMakespan = static_cast<std::size_t>(-1);

  /// `budget` caps the allocatable nodes (at most the machine's).
  EpochCore(Machine machine, Perturbation perturbation, long long budget);

  const Machine& machine() const { return machine_; }
  double clock() const { return clock_; }
  /// Surviving contiguous node segment — the whole machine until a
  /// permanent failure. Barriers span it.
  NodeSet segment() const { return segment_; }
  /// Nodes allocatable now: the budget, clipped to the segment.
  long long budget() const;

  /// Contiguous blocks of the given sizes (each >= 1, together at most
  /// budget()) packed from the segment start: the installed layout.
  std::vector<NodeSet> pack(std::span<const long long> sizes) const;

  /// One epoch's schedule and its resumable state.
  struct Epoch {
    RunResult result;
    EpochState state;
  };

  /// Runs `rt` as one epoch from the clock, pausing on a permanent
  /// failure, and folds its trace, restarts and machine charges in. On
  /// success the clock moves to the end of task `barrier`; after a pause
  /// the segment shrinks and the clock passes the survivors' work.
  Epoch run(const Runtime& rt, std::size_t barrier = kMakespan);

  /// One barrier-closed wave as an epoch: every slot on its nodes (after
  /// its predecessor, if any), then a fixed barrier task named `barrier`
  /// of `barrier_seconds` over the segment, all in trace phase `phase`.
  WaveRun run_wave(const std::vector<WaveSlot>& slots,
                   const std::string& phase, const std::string& barrier,
                   double barrier_seconds);

  /// Charges a migration of `volume_gb` (Machine::migration_seconds): a
  /// "migrate" trace event over the segment, the clock advanced past it.
  /// Returns the stall in seconds.
  double migrate(double volume_gb);

  // Accumulated over every epoch run so far.
  const Trace& trace() const { return trace_; }
  std::size_t restarts() const { return restarts_; }
  double comm_seconds() const { return comm_seconds_; }
  double page_seconds() const { return page_seconds_; }

 private:
  Machine machine_;
  Perturbation perturbation_;
  long long budget_;
  NodeSet segment_;
  double clock_ = 0.0;
  Trace trace_;
  std::size_t restarts_ = 0;
  double comm_seconds_ = 0.0;
  double page_seconds_ = 0.0;
};

}  // namespace hslb::sim

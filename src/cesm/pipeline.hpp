// End-to-end CESM pipeline: the four HSLB steps (§III-F) wired to the CESM
// substrate.
//
//   1. Gather  — run the simulated model at ~5 node counts per component
//                (ocean probes only its sweet-spot counts);
//   2. Fit     — per-component performance models with R^2 diagnostics;
//   3. Solve   — the layout model of Table I, solved exactly without a
//                tree (solve_layout: certified optimal, 0 nodes);
//   4. Execute — a full simulated coupled run at the chosen allocation
//                (CoupledChunkRunner in intervals_per_epoch chunks),
//                reported next to the prediction exactly like Table III's
//                "Predicted Time" / "Actual Time" columns.
#pragma once

#include <array>
#include <memory>

#include "cesm/layouts.hpp"
#include "cesm/simulator.hpp"
#include "hslb/pipeline.hpp"
#include "perf/fit.hpp"

namespace hslb::cesm {

struct PipelineOptions {
  Layout layout = Layout::Hybrid;
  bool ocean_constrained = true;
  std::size_t fit_points = 5;
  std::size_t repetitions = 1;
  SimulatorOptions sim;
  /// lnd/ice synchronization tolerance (seconds); infinity = off.
  double tsync = std::numeric_limits<double>::infinity();
  /// Worker threads for the Gather and Fit stages (0 = hardware
  /// concurrency); allocations are identical for every thread count.
  std::size_t threads = 1;

  /// Coupling periods of the Execute step's coupled run.
  int coupling_intervals = 24;
  /// Execute-step perturbations (see sim::Perturbation): straggler severity
  /// and an optional node fail-stop on the coupled run's machine.
  double straggler_cv = 0.0;
  long long fail_node = -1;
  double fail_time = 0.0;
  double fail_downtime = std::numeric_limits<double>::infinity();

  /// Closed-loop rebalancing (hslb::Controller): when `rebalance.adaptive`
  /// is set, the monitor -> refit -> re-solve -> migrate loop reacts
  /// between chunks. Off, or on but never triggered, the run is
  /// bit-identical to the static pipeline.
  RebalancePolicy rebalance;
  /// Coupling intervals per chunk of the Execute step, static or adaptive
  /// (CoupledChunkRunner). The chunk size does not change a static run,
  /// not even one stopped by a permanent failure; it sets how often the
  /// controller may act.
  int intervals_per_epoch = 4;
  /// Data each re-placed node drags along when the layout moves (restart
  /// state, GB per node); 0 makes migrations free.
  double migrate_gb_per_node = 0.0;
  /// Link bandwidth of the coupled run's machine (GB/s); infinity (the
  /// default) leaves communication unmodeled and migrations therefore
  /// unpriced, exactly as machine_for builds it.
  double link_gb_per_s = std::numeric_limits<double>::infinity();
};

struct PipelineResult {
  perf::BenchTable bench;                  ///< Gather output
  std::array<perf::FitResult, 4> fits;     ///< Fit output
  Solution solution;                       ///< Solve output (predicted)
  std::array<double, 4> actual_seconds{};  ///< Execute output
  double actual_total = 0.0;

  /// Execute-step coupled run (trace, barrier loss, robustness outcome).
  Simulator::CoupledRun coupled;

  /// Per-stage instrumentation from the hslb::Pipeline engine.
  PipelineReport report;

  double min_r2() const;
};

/// Runs the full pipeline for one configuration.
PipelineResult run_pipeline(Resolution r, long long total_nodes,
                            const PipelineOptions& options = {});

/// The CESM substrate as a self-contained hslb::Application (owns a copy
/// of its options), for registry-driven pipelines. Also implements
/// hslb::BaselineReporter (the DLB side is a uniform even split of the
/// budget). A run through the shared engine with equal options produces
/// results bit-identical to run_pipeline.
std::shared_ptr<Application> make_application(Resolution r,
                                              long long total_nodes,
                                              PipelineOptions options = {});

/// The Gather plan the pipeline uses: per-component benchmark node counts
/// (exposed for tests and the data-gathering ablation bench).
std::vector<std::pair<std::string, std::vector<long long>>> gather_plan(
    Resolution r, long long total_nodes, bool ocean_constrained,
    std::size_t fit_points);

}  // namespace hslb::cesm

// The closed-loop rebalancing controller: runs an epoch-capable
// Application (pipeline.hpp's adaptive hooks) as
//
//   repeat: execute epoch -> monitor (imbalance / drift / failure)
//           -> refit (fold observed durations into the gathered samples)
//           -> warm re-solve (seeded from the incumbent allocation)
//           -> accept test (gain x remaining epochs vs migration stall)
//           -> migrate
//
// until the application reports done. A static run is the same epochs
// with no controller (Application::execute's default), stopped at a
// permanent-failure pause: with no trigger the controller executes every
// epoch under the initial allocation and the run is bit-identical to it.
//
// Every decision is a pure function of the epoch outcomes and the policy —
// no wall-clock, no shared mutable state — so the rebalance sequence is
// identical for every worker/solver thread count.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "hslb/pipeline.hpp"
#include "perf/fit.hpp"

namespace hslb {

class ThreadPool;

/// What a closed-loop run did, for reports and benches.
struct AdaptiveResult {
  std::size_t epochs = 0;      ///< epochs executed
  std::size_t triggers = 0;    ///< monitor trips (including rejected ones)
  std::size_t rebalances = 0;  ///< accepted mid-run reallocations
  std::size_t refits = 0;      ///< refit rounds performed
  double migration_seconds = 0.0;  ///< total stall charged by migrations
  double actual_total = 0.0;       ///< Application::finish_epochs() metric
  double max_drift = 0.0;          ///< worst windowed prediction drift seen
  SolveOutcome solution;           ///< allocation in force at the end
  /// Models in force at the end (refitted when any trigger fired).
  std::vector<std::pair<std::string, perf::FitResult>> fits;
};

/// Drives the monitor -> refit -> re-solve -> migrate loop. Stateless
/// apart from its policy; run() may be called repeatedly.
class Controller {
 public:
  Controller(RebalancePolicy policy, perf::FitOptions fit_options);

  /// Runs `app` epoch by epoch from the initial Solve outputs. `bench` and
  /// `fits` are the Gather/Fit stage outputs (refits fold observations into
  /// the gathered samples); `solution` is the initial allocation. A
  /// trigger's refits are independent per task and run on `pool`, each
  /// writing its own task's slot, so the run is identical for every pool
  /// size. The application's hooks are only called from this thread.
  AdaptiveResult run(Application& app, const perf::BenchTable& bench,
                     const std::vector<std::pair<std::string, perf::FitResult>>&
                         fits,
                     const SolveOutcome& solution, ThreadPool& pool) const;

 private:
  RebalancePolicy policy_;
  perf::FitOptions fit_options_;
};

}  // namespace hslb

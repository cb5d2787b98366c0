// The Fit step of HSLB (Table II, line 10): per component,
//
//   min  sum_i ( y_i - (a/n_i + b*n_i^c + d) )^2
//   s.t. a, b, d >= 0,  min_c <= c <= max_c
//
// solved by box-constrained Levenberg-Marquardt with multistart from a
// data-driven start box. By default the exponent c is constrained to
// [1, c_max] so that the fitted model is convex and the allocation MINLP is
// solved to proven global optimality (§III-E); the paper observed b, c
// "almost equal to zero" on Intrepid, which the convex fit reproduces with
// b ~ 0. The machine charges of perf::CostModel are pinned, never fitted.
#pragma once

#include "perf/benchdata.hpp"
#include "perf/model.hpp"

namespace hslb {
class ThreadPool;
}

namespace hslb::perf {

struct FitOptions {
  std::size_t num_starts = 24;
  std::uint64_t seed = 1234;
  /// Worker threads for fit_all (per-task fits are independent; results are
  /// identical for every thread count). 0 = hardware concurrency.
  std::size_t threads = 1;
  /// Exponent bounds. Lower bound 1.0 keeps the model convex; set
  /// min_c < 1 to reproduce the paper's unconstrained-c discussion.
  double min_c = 1.0;
  double max_c = 3.0;
  /// Upper bounds as multiples of data scales: a <= a_scale * max(y * n),
  /// d <= d_scale * min(y).
  double a_scale = 50.0;
  double d_scale = 2.0;
};

struct FitResult {
  Model model;
  double sse = 0.0;
  double rmse = 0.0;
  double r2 = 0.0;             ///< the paper's fit-quality criterion (§III-C)
  std::size_t starts_tried = 0;
  std::size_t starts_converged = 0;
  bool converged = false;
};

/// Fits one component's samples. Requires >= 2 distinct node counts; the
/// paper recommends >= 4 samples ("at least greater than four") — fewer is
/// allowed but flagged by the returned diagnostics (r2 of a saturated fit
/// is trivially 1).
FitResult fit(const SampleSet& samples, const FitOptions& options = {});

/// Fits every task in a gather table, `options.threads` tasks at a time.
/// Passing an existing `pool` reuses its workers (options.threads is then
/// ignored); otherwise a transient pool is built when threads != 1.
std::vector<std::pair<std::string, FitResult>> fit_all(
    const BenchTable& table, const FitOptions& options = {},
    ThreadPool* pool = nullptr);

// ---- Incremental refit: fold epoch observations, re-fit warm ------------
//
// The closed-loop controller re-estimates models mid-run: each epoch's
// trace yields observed (task, nodes, seconds) samples, which are folded
// into the original gather table over a sliding window and re-fitted warm
// from the previous parameters.

/// One observed execution sample from an epoch trace.
struct Observed {
  std::string task;
  double nodes = 0.0;
  double seconds = 0.0;
  std::size_t epoch = 0;  ///< epoch the observation was made in
};

/// Merges one task's gather samples with its epoch observations: gather
/// samples enter at weight 1, each observation inside the window
/// [epoch + 1 - window, epoch] is replicated round(weight) times so a
/// handful of in-situ measurements can move a fit anchored by the gather
/// sweep. Observations for other tasks are ignored.
SampleSet fold_observations(const SampleSet& gathered,
                            const std::vector<Observed>& observations,
                            const std::string& task, std::size_t epoch,
                            std::size_t window, double weight);

/// Mean relative prediction error mean_i |y_i - T(n_i)| / T(n_i) of a
/// fitted model over a task's observations — the drift statistic the
/// rebalance policy thresholds on. 0 when no observation matches `task`.
double prediction_drift(const Model& model,
                        const std::vector<Observed>& observations,
                        const std::string& task);

/// Re-fits warm from previously fitted parameters: a single
/// Levenberg-Marquardt run started at `previous` (projected into the
/// data-driven fit box). When the warm descent fails to converge, falls
/// back to the full fit() multistart.
FitResult refit(const SampleSet& samples, const Model& previous,
                const FitOptions& options = {});

}  // namespace hslb::perf

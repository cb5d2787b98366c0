// The Fit step of HSLB (Table II, line 10): per component,
//
//   min  sum_i ( y_i - (a/n_i + b*n_i^c + d) )^2
//   s.t. a, b, d >= 0,  min_c <= c <= 3
//
// solved by variable projection (Golub & Pereyra 1973). The model is linear
// in a, b and d, so for a fixed exponent c the best (a, b, d) inside a
// data-driven box is a 3-variable bounded least-squares problem, solved
// exactly on one weighted row per distinct node count. That problem is
// convex, so its KKT conditions prove an optimum: most exponents are settled
// by the b = 0 face passing them or by the unconstrained solution lying in
// the box, and only the rest enumerate the active sets (fit.cpp has the
// proof sketch). The fit is then a 1-D search over c (a fixed grid, then
// Brent's method inside the best grid point's bracket). A fit allocates a
// bounded amount whatever the number of exponents it tries: its rows and
// free-column matrices once, and each QR's storage the first time that set
// is factored. The paper instead tries several starting points of a local
// solver (§III-C); this search needs none and is deterministic. By default
// c >= 1, so the fitted model is convex and the allocation MINLP is solved
// to proven global optimality (§III-E); the paper observed b, c "almost
// equal to zero" on Intrepid, which the convex fit reproduces with b ~ 0.
// The machine charges of perf::CostModel are pinned, never fitted.
#pragma once

#include "perf/benchdata.hpp"
#include "perf/model.hpp"

namespace hslb {
class ThreadPool;
}

namespace hslb::perf {

struct FitOptions {
  /// Worker threads for fit_all (per-task fits are independent; results are
  /// identical for every thread count). 0 = hardware concurrency.
  std::size_t threads = 1;
  /// Exponent lower bound, at most the fixed ceiling 3. The default 1.0
  /// keeps the model convex; set min_c < 1 to reproduce the paper's
  /// unconstrained-c discussion.
  double min_c = 1.0;
};

struct FitResult {
  Model model;
  double sse = 0.0;
  double rmse = 0.0;
  double r2 = 0.0;  ///< the paper's fit-quality criterion (§III-C)
};

/// Fits one component's samples inside the box a <= 50 max(y n),
/// b <= max(max y, 1), d <= 2 min y. Requires >= 2 distinct node counts;
/// the paper recommends >= 4 samples ("at least greater than four") —
/// fewer is allowed (r2 of a saturated fit is trivially 1). Among equally
/// good exponents the lowest wins, so a fit with b = 0 reports c = min_c.
/// "Equally good" means bit-equal SSEs: with 3 or fewer distinct counts the
/// exponent is not identifiable, and rounding picks among exponents that fit
/// equally well.
FitResult fit(const SampleSet& samples, const FitOptions& options = {});

/// Fits every task in a gather table, `options.threads` tasks at a time.
/// Passing an existing `pool` reuses its workers (options.threads is then
/// ignored); otherwise a transient pool is built when threads != 1.
std::vector<std::pair<std::string, FitResult>> fit_all(
    const BenchTable& table, const FitOptions& options = {},
    ThreadPool* pool = nullptr);

// ---- Refit inputs: fold epoch observations into the gathered samples -----
//
// The closed-loop controller re-estimates models mid-run: each epoch's
// trace yields observed (task, nodes, seconds) samples, which are folded
// into the original gather table over a sliding window and fitted again.

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

}  // namespace hslb::perf

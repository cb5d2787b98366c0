// Incremental refit (fold_observations / prediction_drift / refit):
// the Fit half of the closed-loop controller. Gather samples anchor the
// model; windowed, weighted epoch observations drag it toward the in-situ
// truth; the drift statistic decides when the controller must act.
#include "perf/fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace hslb::perf {
namespace {

// Exact power-law world a/n + d: T(n) = 120/n + 2.
SampleSet exact_samples(double a = 120.0, double d = 2.0) {
  SampleSet s;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0})
    s.push_back({n, a / n + d});
  return s;
}

TEST(PerfRefit, FoldKeepsGatherAndFiltersByTaskAndWindow) {
  const SampleSet gathered = exact_samples();
  const std::vector<Observed> obs = {
      {"frag", 4.0, 40.0, 5},    // in window
      {"frag", 8.0, 25.0, 3},    // too old for window 2 at epoch 5
      {"other", 4.0, 99.0, 5},   // different task
  };
  const SampleSet folded =
      fold_observations(gathered, obs, "frag", /*epoch=*/5, /*window=*/2,
                        /*weight=*/3.0);
  // 6 gather samples + the one eligible observation replicated 3 times.
  ASSERT_EQ(folded.size(), gathered.size() + 3);
  for (std::size_t i = 0; i < gathered.size(); ++i) {
    EXPECT_EQ(folded[i].nodes, gathered[i].nodes);
    EXPECT_EQ(folded[i].seconds, gathered[i].seconds);
  }
  for (std::size_t i = gathered.size(); i < folded.size(); ++i) {
    EXPECT_EQ(folded[i].nodes, 4.0);
    EXPECT_EQ(folded[i].seconds, 40.0);
  }
}

TEST(PerfRefit, FoldWithNoEligibleObservationsIsGatherVerbatim) {
  const SampleSet gathered = exact_samples();
  const SampleSet folded =
      fold_observations(gathered, {}, "frag", 0, 4, 4.0);
  ASSERT_EQ(folded.size(), gathered.size());
}

TEST(PerfRefit, PredictionDriftIsMeanRelativeError) {
  const FitResult fitted = fit(exact_samples());
  ASSERT_TRUE(fitted.converged);
  // Observations matching the model: drift ~ 0.
  std::vector<Observed> good = {{"frag", 4.0, 120.0 / 4.0 + 2.0, 0},
                                {"frag", 8.0, 120.0 / 8.0 + 2.0, 0}};
  EXPECT_NEAR(prediction_drift(fitted.model, good, "frag"), 0.0, 1e-6);

  // Everything 50% slower than predicted: drift = 0.5.
  std::vector<Observed> slow = good;
  for (auto& o : slow) o.seconds *= 1.5;
  EXPECT_NEAR(prediction_drift(fitted.model, slow, "frag"), 0.5, 1e-6);

  // No matching task: defined as 0 (nothing to act on).
  EXPECT_EQ(prediction_drift(fitted.model, slow, "other"), 0.0);
}

// The controller's sequence: fit the gather sweep, observe a 2x-slower
// truth for a few epochs, fold and refit warm — the refitted model must
// track the observations, and the warm path must match a cold fit of the
// same folded data.
TEST(PerfRefit, WarmRefitTracksDriftedObservations) {
  const SampleSet gathered = exact_samples();
  FitOptions opt;
  const FitResult first = fit(gathered, opt);
  ASSERT_TRUE(first.converged);
  EXPECT_GT(first.r2, 0.999);

  // The world drifted: the task now runs 2x slower at every width.
  std::vector<Observed> obs;
  for (double n : {4.0, 8.0, 16.0})
    obs.push_back({"frag", n, 2.0 * (120.0 / n + 2.0), 1});
  const double drift = prediction_drift(first.model, obs, "frag");
  EXPECT_NEAR(drift, 1.0, 1e-3);  // 100% slower than predicted

  const SampleSet folded =
      fold_observations(gathered, obs, "frag", 1, 4, 8.0);
  const FitResult warm = refit(folded, first.model, opt);
  // The folded data is deliberately self-contradictory (gather and
  // observations disagree at the same widths), so the descent may stop on
  // tolerance without formally converging — the fit is still usable.
  // The heavily weighted observations pull the refit toward the 2x truth:
  // the refitted prediction at the observed widths sits well above the
  // stale one and the residual drift shrinks.
  const double residual = prediction_drift(warm.model, obs, "frag");
  EXPECT_LT(residual, 0.5 * drift);
  EXPECT_GT(warm.model.eval(8.0), first.model.eval(8.0));
}

TEST(PerfRefit, WarmRefitOnUnchangedDataReproducesFit) {
  const SampleSet gathered = exact_samples();
  const FitResult cold = fit(gathered);
  const FitResult warm = refit(gathered, cold.model);
  ASSERT_TRUE(warm.converged);
  // Same data, warm start at the optimum: the solution must not move.
  EXPECT_NEAR(warm.model.a, cold.model.a, 1e-6 * cold.model.a);
  EXPECT_NEAR(warm.model.d, cold.model.d, 1e-6 * std::max(1.0, cold.model.d));
  EXPECT_LE(warm.sse, cold.sse + 1e-9);
}

}  // namespace
}  // namespace hslb::perf

#include "hslb/controller.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/contracts.hpp"
#include "common/parallel.hpp"

namespace hslb {

namespace {

/// Observations inside the refit window [epoch + 1 - window, epoch].
std::vector<perf::Observed> windowed(const std::vector<perf::Observed>& all,
                                     std::size_t epoch, std::size_t window) {
  const std::size_t oldest = epoch + 1 >= window ? epoch + 1 - window : 0;
  std::vector<perf::Observed> out;
  for (const auto& o : all)
    if (o.epoch >= oldest && o.epoch <= epoch) out.push_back(o);
  return out;
}

bool same_allocation(const Allocation& a, const Allocation& b) {
  if (a.tasks.size() != b.tasks.size()) return false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    if (a.tasks[i].task != b.tasks[i].task ||
        a.tasks[i].nodes != b.tasks[i].nodes)
      return false;
  }
  return true;
}

}  // namespace

Controller::Controller(RebalancePolicy policy, perf::FitOptions fit_options)
    : policy_(std::move(policy)), fit_options_(std::move(fit_options)) {
  HSLB_EXPECTS(policy_.refit_window >= 1);
  HSLB_EXPECTS(policy_.observation_weight >= 1.0);
}

AdaptiveResult Controller::run(
    Application& app, const perf::BenchTable& bench,
    const std::vector<std::pair<std::string, perf::FitResult>>& fits,
    const SolveOutcome& solution, ThreadPool& pool) const {
  AdaptiveResult out;
  out.solution = solution;
  out.fits = fits;

  // Gathered samples by task name: the base every refit folds observed
  // durations into.
  std::unordered_map<std::string, const perf::SampleSet*> gathered;
  for (const auto& t : bench.tasks) gathered.emplace(t.task, &t.samples);

  app.begin_epochs(out.solution);

  std::vector<perf::Observed> observations;
  for (std::size_t epoch = 0;; ++epoch) {
    // Backstop against an application that never reports done; any real
    // run is orders of magnitude below this.
    HSLB_ASSERT(epoch < 1000000);
    EpochOutcome eo = app.execute_epoch(epoch);
    ++out.epochs;
    for (auto& o : eo.observations) {
      o.epoch = epoch;
      observations.push_back(std::move(o));
    }
    if (eo.done) break;

    // -- Monitor -------------------------------------------------------------
    const bool monitored =
        policy_.max_epochs == 0 || epoch < policy_.max_epochs;
    const auto window = windowed(observations, epoch, policy_.refit_window);
    double drift = 0.0;
    for (const auto& [task, fit] : out.fits)
      drift = std::max(drift, perf::prediction_drift(fit.model, window, task));
    out.max_drift = std::max(out.max_drift, drift);

    const bool failure = eo.failure_detected;
    bool trip = failure;
    if (!trip && monitored) {
      trip = eo.imbalance > policy_.imbalance_threshold ||
             drift > policy_.drift_threshold;
    }
    if (!trip) continue;
    ++out.triggers;

    // -- Refit ---------------------------------------------------------------
    // Tasks with fresh observations are fitted again on their gathered
    // samples with the window's observations folded in; the rest keep
    // their models, so an isolated straggler only perturbs the fragments it
    // actually slowed.
    std::vector<std::size_t> stale;
    for (std::size_t i = 0; i < out.fits.size(); ++i) {
      const std::string& task = out.fits[i].first;
      if (std::any_of(window.begin(), window.end(),
                      [&](const perf::Observed& o) { return o.task == task; }))
        stale.push_back(i);
    }
    pool.parallel_for(stale.size(), [&](std::size_t s) {
      auto& [task, fit] = out.fits[stale[s]];
      const auto it = gathered.find(task);
      HSLB_ASSERT(it != gathered.end());
      const perf::SampleSet samples = perf::fold_observations(
          *it->second, window, task, epoch, policy_.refit_window,
          policy_.observation_weight);
      fit = perf::fit(samples, fit_options_);
    });
    if (!stale.empty()) ++out.refits;

    // -- Warm re-solve + accept test -----------------------------------------
    const ResolveOutcome proposal = app.resolve(out.fits, out.solution);
    const double gain =
        proposal.incumbent_predicted - proposal.solution.predicted_total;
    bool accept = failure;
    if (!accept && gain > 0.0 &&
        !same_allocation(proposal.solution.allocation,
                         out.solution.allocation)) {
      const double stall = app.migration_cost(out.solution, proposal.solution);
      accept = gain * std::max(1.0, eo.epochs_remaining) > stall;
    }
    if (!accept) continue;

    // -- Migrate -------------------------------------------------------------
    out.migration_seconds += app.apply_allocation(proposal.solution);
    out.solution = proposal.solution;
    ++out.rebalances;
  }

  out.actual_total = app.finish_epochs();
  return out;
}

}  // namespace hslb

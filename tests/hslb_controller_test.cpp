// hslb::Controller decision logic against a scripted fake application:
// trigger thresholds, hysteresis, the migration-aware accept test, the
// failure bypass, and the refit-on-drift path — all without a simulator,
// so each rule is pinned in isolation.
#include "hslb/controller.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "perf/fit.hpp"

namespace hslb {
namespace {

/// The decision logic is independent of the refit pool; a one-worker pool
/// runs refits inline on the calling thread.
ThreadPool serial(1);

perf::SampleSet exact_samples(double a = 120.0, double d = 2.0) {
  perf::SampleSet s;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0})
    s.push_back({n, a / n + d});
  return s;
}

/// An epoch-capable application driven by a per-epoch script. resolve()
/// proposes a fresh allocation (distinct node count each call) with
/// configurable predicted gain; migration has a configurable stall.
class FakeApp : public Application {
 public:
  struct EpochScript {
    double imbalance = 0.0;
    bool failure = false;
    double epochs_remaining = 1.0;
    std::vector<perf::Observed> observations;
  };

  std::vector<EpochScript> script;
  double incumbent_predicted = 2.0;  ///< incumbent per-epoch prediction
  double proposal_predicted = 1.0;   ///< proposal per-epoch prediction
  double migration_stall = 0.0;

  std::size_t begins = 0, resolves = 0, applies = 0, finishes = 0;
  /// Refitted prediction for the probed width at the last resolve call.
  double last_resolve_pred8 = 0.0;

  std::string name() const override { return "fake"; }
  GatherPlan gather_plan() override { return {}; }
  double probe(const std::string&, long long, std::uint64_t) override {
    return 0.0;
  }
  SolveOutcome solve(
      const std::vector<std::pair<std::string, perf::FitResult>>&) override {
    return {};
  }
  double execute(const SolveOutcome&) override { return 0.0; }

  bool supports_epochs() const override { return true; }
  void begin_epochs(const SolveOutcome&) override { ++begins; }
  EpochOutcome execute_epoch(std::size_t epoch) override {
    EpochOutcome eo;
    if (epoch >= script.size()) {
      eo.done = true;
      return eo;
    }
    const EpochScript& s = script[epoch];
    eo.imbalance = s.imbalance;
    eo.failure_detected = s.failure;
    eo.epochs_remaining = s.epochs_remaining;
    eo.observations = s.observations;
    eo.epoch_seconds = 1.0;
    return eo;
  }
  ResolveOutcome resolve(
      const std::vector<std::pair<std::string, perf::FitResult>>& fits,
      const SolveOutcome&) override {
    ++resolves;
    if (!fits.empty()) last_resolve_pred8 = fits[0].second.model.eval(8.0);
    ResolveOutcome r;
    // A distinct allocation each call, so repeated proposals are never
    // rejected as "same allocation".
    r.solution.allocation.tasks = {
        {"t", static_cast<long long>(100 + resolves), proposal_predicted}};
    r.solution.predicted_total = proposal_predicted;
    r.incumbent_predicted = incumbent_predicted;
    return r;
  }
  double migration_cost(const SolveOutcome&,
                        const SolveOutcome&) const override {
    return migration_stall;
  }
  double apply_allocation(const SolveOutcome&) override {
    ++applies;
    return migration_stall;
  }
  double finish_epochs() override {
    ++finishes;
    return 42.0;
  }
};

/// Gather table + fitted models for the single task "t".
struct World {
  perf::BenchTable bench;
  std::vector<std::pair<std::string, perf::FitResult>> fits;
  SolveOutcome solution;
};

World make_world() {
  World w;
  w.bench.tasks.push_back({"t", exact_samples()});
  w.fits.emplace_back("t", perf::fit(exact_samples()));
  w.solution.allocation.tasks = {{"t", 4, 32.0}};
  w.solution.predicted_total = 32.0;
  return w;
}

TEST(Controller, QuietRunNeverResolves) {
  FakeApp app;
  app.script.resize(3);  // three quiet epochs
  const World w = make_world();
  const Controller ctl({.adaptive = true}, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution, serial);

  EXPECT_EQ(r.triggers, 0u);
  EXPECT_EQ(r.rebalances, 0u);
  EXPECT_EQ(r.refits, 0u);
  EXPECT_EQ(app.resolves, 0u);
  EXPECT_EQ(app.applies, 0u);
  EXPECT_EQ(app.begins, 1u);
  EXPECT_EQ(app.finishes, 1u);
  EXPECT_EQ(r.migration_seconds, 0.0);
  EXPECT_EQ(r.actual_total, 42.0);
  // The initial allocation stays in force.
  EXPECT_EQ(r.solution.allocation.tasks[0].nodes, 4);
}

TEST(Controller, ImbalanceAboveThresholdRebalances) {
  FakeApp app;
  app.script.resize(2);
  app.script[0].imbalance = 0.5;  // > default 0.25
  app.script[0].epochs_remaining = 5.0;
  const World w = make_world();
  const Controller ctl({.adaptive = true}, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution, serial);

  EXPECT_EQ(r.triggers, 1u);
  EXPECT_EQ(r.rebalances, 1u);
  EXPECT_EQ(app.resolves, 1u);
  EXPECT_EQ(app.applies, 1u);
  EXPECT_EQ(r.solution.allocation.tasks[0].nodes, 101);
}

TEST(Controller, ImbalanceBelowThresholdIsIgnored) {
  FakeApp app;
  app.script.resize(2);
  app.script[0].imbalance = 0.2;  // < default 0.25
  const World w = make_world();
  const Controller ctl({.adaptive = true}, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution, serial);
  EXPECT_EQ(r.triggers, 0u);
  EXPECT_EQ(app.resolves, 0u);
  (void)r;
}

TEST(Controller, MigrationAwareAcceptRejectsUnprofitableMove) {
  FakeApp app;
  app.script.resize(2);
  app.script[0].imbalance = 0.5;
  app.script[0].epochs_remaining = 2.0;
  app.incumbent_predicted = 1.0;
  app.proposal_predicted = 0.9;  // gain 0.1/epoch, 0.2 over the run
  app.migration_stall = 0.5;     // costs more than it saves
  const World w = make_world();
  const Controller ctl({.adaptive = true}, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution, serial);

  EXPECT_EQ(r.triggers, 1u);
  EXPECT_EQ(app.resolves, 1u);
  EXPECT_EQ(r.rebalances, 0u);  // proposal rejected
  EXPECT_EQ(app.applies, 0u);
  EXPECT_EQ(r.migration_seconds, 0.0);
}

TEST(Controller, MigrationAwareOffAcceptsAnyImprovement) {
  FakeApp app;
  app.script.resize(2);
  app.script[0].imbalance = 0.5;
  app.script[0].epochs_remaining = 2.0;
  app.incumbent_predicted = 1.0;
  app.proposal_predicted = 0.9;
  app.migration_stall = 0.5;
  const World w = make_world();
  RebalancePolicy policy{.adaptive = true};
  policy.migration_aware = false;
  const Controller ctl(policy, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution, serial);
  EXPECT_EQ(r.rebalances, 1u);
  EXPECT_EQ(r.migration_seconds, 0.5);  // the stall is still charged
}

TEST(Controller, FailureBypassesAcceptTest) {
  FakeApp app;
  app.script.resize(2);
  app.script[0].failure = true;
  // The proposal is *worse* and migration is expensive; a failure accepts
  // anyway — any feasible allocation beats a wedged run.
  app.incumbent_predicted = 1.0;
  app.proposal_predicted = 5.0;
  app.migration_stall = 10.0;
  const World w = make_world();
  const Controller ctl({.adaptive = true}, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution, serial);

  EXPECT_EQ(r.rebalances, 1u);
  EXPECT_EQ(app.applies, 1u);
  EXPECT_EQ(r.migration_seconds, 10.0);
}

TEST(Controller, HysteresisGatesBothFirstAndRepeatTriggers) {
  FakeApp app;
  app.script.resize(6);
  for (auto& e : app.script) {
    e.imbalance = 0.5;
    e.epochs_remaining = 5.0;
  }
  const World w = make_world();
  RebalancePolicy policy{.adaptive = true};
  policy.min_epoch_gap = 3;
  const Controller ctl(policy, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution, serial);

  // Epochs 0-5 all violate the threshold; the gap admits only epochs 2
  // (first allowed: epoch + 1 >= 3) and 5 (3 epochs after the accept).
  EXPECT_EQ(r.triggers, 2u);
  EXPECT_EQ(r.rebalances, 2u);
}

TEST(Controller, MaxEpochsStopsMonitoringNotExecution) {
  FakeApp app;
  app.script.resize(5);
  for (auto& e : app.script) {
    e.imbalance = 0.5;
    e.epochs_remaining = 5.0;
  }
  const World w = make_world();
  RebalancePolicy policy{.adaptive = true};
  policy.max_epochs = 2;
  const Controller ctl(policy, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution, serial);

  // Only epochs 0 and 1 are monitored; execution still runs to done.
  EXPECT_EQ(r.triggers, 2u);
  EXPECT_EQ(app.finishes, 1u);
  EXPECT_EQ(r.actual_total, 42.0);
}

TEST(Controller, DriftTriggersRefitAndResolvesUnderNewModels) {
  FakeApp app;
  app.script.resize(3);
  // Quiet imbalance, but the task runs 2x slower than the fitted model at
  // every observed width.
  for (double n : {4.0, 8.0}) {
    app.script[0].observations.push_back(
        {"t", n, 2.0 * (120.0 / n + 2.0), 0});
  }
  const World w = make_world();
  const double stale_pred8 = w.fits[0].second.model.eval(8.0);
  const Controller ctl({.adaptive = true}, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution, serial);

  EXPECT_GE(r.triggers, 1u);       // drift 1.0 > default 0.10
  EXPECT_GE(r.refits, 1u);
  EXPECT_GE(r.max_drift, 0.9);
  // The resolve saw refitted models that track the slower truth.
  EXPECT_GT(app.last_resolve_pred8, stale_pred8);
  // And the result carries the refitted models out.
  EXPECT_GT(r.fits[0].second.model.eval(8.0), stale_pred8);
}

TEST(Controller, DecisionsArePureFunctionsOfTheScript) {
  const World w = make_world();
  auto run_once = [&] {
    FakeApp app;
    app.script.resize(4);
    app.script[1].imbalance = 0.5;
    app.script[2].failure = true;
    const Controller ctl({.adaptive = true}, {});
    return ctl.run(app, w.bench, w.fits, w.solution, serial);
  };
  const AdaptiveResult a = run_once();
  const AdaptiveResult b = run_once();
  EXPECT_EQ(a.triggers, b.triggers);
  EXPECT_EQ(a.rebalances, b.rebalances);
  EXPECT_EQ(a.refits, b.refits);
  EXPECT_EQ(a.migration_seconds, b.migration_seconds);
  EXPECT_EQ(a.solution.allocation.tasks[0].nodes,
            b.solution.allocation.tasks[0].nodes);
}

}  // namespace
}  // namespace hslb

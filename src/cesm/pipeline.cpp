#include "cesm/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "common/contracts.hpp"
#include "hslb/gather.hpp"
#include "hslb/registry.hpp"

namespace hslb::cesm {

double PipelineResult::min_r2() const {
  double m = 1.0;
  for (const auto& f : fits) m = std::min(m, f.r2);
  return m;
}

std::vector<std::pair<std::string, std::vector<long long>>> gather_plan(
    Resolution r, long long total_nodes, bool ocean_constrained,
    std::size_t fit_points) {
  HSLB_EXPECTS(total_nodes >= 8);
  HSLB_EXPECTS(fit_points >= 2);

  std::vector<std::pair<std::string, std::vector<long long>>> plan;
  // Memory floor: CESM cannot run on arbitrarily few nodes at scale; probe
  // from ~N/256 up to the full partition (§III-C: smallest feasible to
  // largest possible).
  const long long lo = std::max<long long>(2, total_nodes / 256);

  for (Component c : kComponents) {
    std::vector<long long> counts;
    if (c == Component::Ocn && ocean_constrained) {
      // Probe only allowed sweet spots: pick fit_points of them spread
      // geometrically across the available set.
      const auto& allowed = ocean_allowed_nodes(r);
      std::vector<long long> usable;
      for (long long v : allowed)
        if (v <= total_nodes) usable.push_back(v);
      HSLB_EXPECTS(!usable.empty());
      std::set<long long> picked{usable.front(), usable.back()};
      for (std::size_t i = 1; i + 1 < fit_points; ++i) {
        const double f =
            static_cast<double>(i) / static_cast<double>(fit_points - 1);
        const auto idx = static_cast<std::size_t>(std::llround(
            f * static_cast<double>(usable.size() - 1)));
        picked.insert(usable[idx]);
      }
      counts.assign(picked.begin(), picked.end());
    } else {
      long long hi = total_nodes;
      if (c == Component::Atm && r == Resolution::Deg1)
        hi = std::min<long long>(hi, atm_allowed_nodes_deg1().back());
      counts = geometric_node_counts(std::min(lo, hi), hi, fit_points);
    }
    plan.emplace_back(to_string(c), counts);
  }
  return plan;
}

namespace {

/// The CESM substrate behind the hslb::Pipeline engine: gather_plan's
/// per-component node counts, order-independent simulator probes, the
/// Table I layout MINLP as the Solve step, and a full simulated coupled
/// run, chunk by chunk, as Execute.
class CesmApplication final : public Application, public BaselineReporter {
 public:
  CesmApplication(Resolution r, long long total_nodes,
                  const PipelineOptions& options)
      : resolution_(r),
        total_nodes_(total_nodes),
        options_(options),
        sim_(r, options.sim) {}

  std::string name() const override {
    return std::string("cesm/") + to_string(resolution_);
  }

  GatherPlan gather_plan() override {
    return cesm::gather_plan(resolution_, total_nodes_,
                             options_.ocean_constrained, options_.fit_points);
  }

  double probe(const std::string& task, long long nodes,
               std::uint64_t rep) override {
    return sim_.benchmark_at(component_from_string(task), nodes, rep);
  }

  SolveOutcome solve(const std::vector<std::pair<std::string, perf::FitResult>>&
                         fits) override {
    LayoutProblem problem = make_problem(resolution_, options_.layout,
                                         total_nodes_, models_from(fits),
                                         options_.ocean_constrained);
    problem.tsync = options_.tsync;
    solution_ = solve_layout(problem, options_.bnb);
    return outcome_from(solution_);
  }

  // --- Epoch hooks: the coupled run in intervals_per_epoch chunks, with no
  // controller on a static run (Application::execute) ---

  bool supports_epochs() const override { return true; }

  void begin_epochs(const SolveOutcome&) override {
    sim::Machine machine =
        Simulator::machine_for(options_.layout, solution_.nodes);
    machine.link_gb_per_s = options_.link_gb_per_s;
    auto perturb = make_perturb(machine.nodes);
    runner_ = std::make_unique<CoupledChunkRunner>(
        sim_, options_.layout, options_.coupling_intervals,
        options_.intervals_per_epoch, std::move(machine), std::move(perturb));
    runner_->install(solution_.nodes);
  }

  EpochOutcome execute_epoch(std::size_t) override { return runner_->step(); }

  ResolveOutcome resolve(
      const std::vector<std::pair<std::string, perf::FitResult>>& fits,
      const SolveOutcome& incumbent) override {
    const auto models = models_from(fits);
    LayoutProblem problem =
        make_problem(resolution_, options_.layout, runner_->budget(), models,
                     options_.ocean_constrained);
    problem.tsync = options_.tsync;
    // Cold re-solve: the four-variable layout MINLP is small enough that
    // warm seeding buys nothing (the FMO substrate exercises that path).
    const Solution proposal = solve_layout(problem, options_.bnb);
    ResolveOutcome out;
    out.solution = outcome_from(proposal);
    // Re-predict the incumbent under the same refitted models so the
    // controller's accept test compares like with like.
    std::array<double, 4> inc{};
    for (const auto& t : incumbent.allocation.tasks) {
      const auto i = index(component_from_string(t.task));
      inc[i] = models[i].eval(static_cast<double>(t.nodes));
    }
    out.incumbent_predicted = layout_total(options_.layout, inc);
    return out;
  }

  double migration_cost(const SolveOutcome&,
                        const SolveOutcome& to) const override {
    return runner_->machine().migration_seconds(runner_->migration_volume(
        nodes_of(to.allocation), options_.migrate_gb_per_node));
  }

  double apply_allocation(const SolveOutcome& solution) override {
    const auto nodes = nodes_of(solution.allocation);
    const double stall = runner_->migrate(runner_->migration_volume(
        nodes, options_.migrate_gb_per_node));
    runner_->install(nodes);
    return stall;
  }

  double finish_epochs() override {
    run_ = runner_->finish();
    actual_seconds_ = run_.component_seconds;
    actual_total_ = run_.total_seconds;
    executed_ = true;
    return actual_total_;
  }

  sim::Machine machine() const override {
    if (!executed_) return {};
    return Simulator::machine_for(options_.layout, solution_.nodes);
  }

  const sim::Trace* execution_trace() const override {
    return executed_ ? &run_.trace : nullptr;
  }

  bool execution_completed() const override { return run_.completed; }

  std::vector<std::pair<std::string, double>> execution_term_seconds()
      const override {
    return {{"compute", actual_total_}};
  }

  // -- BaselineReporter -------------------------------------------------
  double hslb_total_seconds() override { return actual_total_; }

  /// Naive static baseline: the node budget split evenly over the four
  /// components (remainder to the first), same layout, intervals, and
  /// perturbation — what an allocation-blind launch of the coupled model
  /// costs. Computed lazily (run_coupled is const and keyed, so this never
  /// perturbs the HSLB run's results).
  double dlb_total_seconds() override {
    if (!dlb_ran_) {
      const long long q = std::max<long long>(1, total_nodes_ / 4);
      const std::array<long long, 4> nodes{
          std::max<long long>(1, total_nodes_ - 3 * q), q, q, q};
      const auto machine = Simulator::machine_for(options_.layout, nodes);
      dlb_total_ = sim_
                       .run_coupled(options_.layout, nodes,
                                    options_.coupling_intervals,
                                    make_perturb(machine.nodes))
                       .total_seconds;
      dlb_ran_ = true;
    }
    return dlb_total_;
  }

  // Substrate-specific outputs copied into PipelineResult by run_pipeline.
  Solution solution_;
  Simulator::CoupledRun run_;
  std::array<double, 4> actual_seconds_{};
  double actual_total_ = 0.0;
  bool executed_ = false;
  bool dlb_ran_ = false;
  double dlb_total_ = 0.0;

 private:
  static std::array<perf::Model, 4> models_from(
      const std::vector<std::pair<std::string, perf::FitResult>>& fits) {
    std::array<perf::Model, 4> models;
    for (const auto& [task, fit] : fits)
      models[index(component_from_string(task))] = fit.model;
    return models;
  }

  static std::array<long long, 4> nodes_of(const Allocation& allocation) {
    std::array<long long, 4> nodes{};
    for (const auto& t : allocation.tasks)
      nodes[index(component_from_string(t.task))] = t.nodes;
    return nodes;
  }

  sim::Perturbation make_perturb(std::size_t machine_nodes) const {
    sim::Perturbation perturb;
    perturb.seed = options_.sim.seed;
    if (options_.straggler_cv > 0.0) {
      perturb.node_slowdown = sim::Perturbation::stragglers(
          machine_nodes, options_.straggler_cv, options_.sim.seed);
    }
    perturb.fail_node = options_.fail_node;
    perturb.fail_time = options_.fail_time;
    perturb.fail_downtime = options_.fail_downtime;
    return perturb;
  }

  /// Solution -> engine SolveOutcome (allocation, prediction, solver stats).
  SolveOutcome outcome_from(const Solution& s) const {
    SolveOutcome out;
    for (Component c : kComponents) {
      out.allocation.tasks.push_back(
          {to_string(c), s.nodes[index(c)], s.predicted_seconds[index(c)]});
    }
    out.allocation.predicted_total = s.predicted_total;
    out.predicted_total = s.predicted_total;
    out.solver = SolverStats::from_bnb(s.stats, options_.bnb.solver_threads);
    // The CESM layout model is compute-only: one aggregate term.
    out.term_predictions.push_back({"compute", s.predicted_total, 0.0});
    return out;
  }

  Resolution resolution_;
  long long total_nodes_;
  const PipelineOptions& options_;
  Simulator sim_;
  std::unique_ptr<CoupledChunkRunner> runner_;
};

}  // namespace

std::shared_ptr<Application> make_application(Resolution r,
                                              long long total_nodes,
                                              PipelineOptions options) {
  // CesmApplication holds a const reference to its options; the aliasing
  // shared_ptr keeps one State alive that owns both.
  struct State {
    PipelineOptions options;
    CesmApplication app;
    State(Resolution res, long long nodes, PipelineOptions o)
        : options(std::move(o)), app(res, nodes, options) {}
  };
  auto state = std::make_shared<State>(r, total_nodes, std::move(options));
  return std::shared_ptr<Application>(state, &state->app);
}

PipelineResult run_pipeline(Resolution r, long long total_nodes,
                            const PipelineOptions& options) {
  CesmApplication app(r, total_nodes, options);
  hslb::PipelineOptions engine_options;
  engine_options.threads = options.threads;
  engine_options.gather_repetitions = options.repetitions;
  engine_options.rebalance = options.rebalance;
  auto run = Pipeline(engine_options).run(app);

  PipelineResult out;
  out.bench = std::move(run.bench);
  for (const auto& [task, fit] : run.fits)
    out.fits[index(component_from_string(task))] = fit;
  out.solution = std::move(app.solution_);
  out.actual_seconds = app.actual_seconds_;
  out.actual_total = app.actual_total_;
  out.coupled = std::move(app.run_);
  out.report = std::move(run.report);
  return out;
}

}  // namespace hslb::cesm

#include "fmo/driver.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "hslb/registry.hpp"
#include "perf/terms.hpp"
#include "sim/noise.hpp"

namespace hslb::fmo {

long long probe_ceiling(const System& sys, long long nodes) {
  HSLB_EXPECTS(nodes >= static_cast<long long>(sys.num_fragments()));
  const auto frags = static_cast<long long>(sys.num_fragments());
  // A fragment can never get more than budget - (F-1) nodes; probing much
  // beyond several fair shares is wasted benchmark time.
  const long long fair = std::max<long long>(1, nodes / frags);
  return std::max<long long>(8, std::min(nodes - frags + 1, 8 * fair));
}

std::vector<BudgetTask> make_budget_tasks(
    const System& sys,
    const std::vector<std::pair<std::string, perf::FitResult>>& fits,
    long long max_nodes_per_fragment) {
  HSLB_EXPECTS(fits.size() == sys.num_fragments());
  std::vector<BudgetTask> tasks;
  tasks.reserve(fits.size());
  for (const auto& [name, fit] : fits) {
    tasks.push_back(BudgetTask{name, fit.model, 1, max_nodes_per_fragment});
  }
  return tasks;
}

namespace {

/// The FMO substrate behind the hslb::Pipeline engine. Probe noise is
/// derived per (fragment, node count, repetition) so Gather parallelizes
/// with identical results for every thread count; stream indices
/// [0, F) are the monomer fragments, [F, F + #dimers) the probed dimers.
class FmoApplication final : public Application, public BaselineReporter {
 public:
  FmoApplication(const System& sys, const CostModel& cost, long long nodes,
                 const PipelineOptions& options)
      : sys_(sys),
        cost_(cost),
        nodes_(nodes),
        options_(options),
        // The predicted SCC loop runs one wave of all fragments per
        // iteration.
        solver_(options.objective, options.solve_with_minlp,
                options.bnb.gap_tol,
                static_cast<double>(options.run.scc_iterations),
                options.run.sync_overhead) {
    hi_ = probe_ceiling(sys, nodes);
    counts_ = geometric_node_counts(1, hi_, options.fit_points);
    truth_.reserve(sys.num_fragments());
    names_.reserve(sys.num_fragments());
    for (std::size_t f = 0; f < sys.fragments.size(); ++f) {
      truth_.push_back(cost.monomer(sys.fragments[f]));
      names_.push_back(sys.fragments[f].name);
      index_of_[sys.fragments[f].name] = f;
    }
  }

  std::string name() const override { return "fmo/" + sys_.name; }

  GatherPlan gather_plan() override {
    GatherPlan plan;
    plan.reserve(names_.size());
    for (const auto& n : names_) plan.emplace_back(n, counts_);
    return plan;
  }

  double probe(const std::string& task, long long n,
               std::uint64_t rep) override {
    const auto it = index_of_.find(task);
    HSLB_ASSERT(it != index_of_.end());
    return noisy(truth_[it->second].eval(static_cast<double>(n)), it->second,
                 n, rep);
  }

  SolveOutcome solve(const std::vector<std::pair<std::string, perf::FitResult>>&
                         fits) override {
    auto tasks = make_budget_tasks(sys_, fits, hi_);
    add_machine_terms(tasks);
    SolveOutcome out = solver_.solve(tasks, nodes_);
    predicted_scc_seconds_ = out.predicted_total;
    return out;
  }

  sim::Machine machine() const override {
    if (options_.run.machine.nodes > 0) return options_.run.machine;
    return sim::Machine{"intrepid", static_cast<std::size_t>(nodes_), 4};
  }

  const sim::Trace* execution_trace() const override { return &hslb_.trace; }

  bool execution_completed() const override { return hslb_.completed; }

  std::vector<std::pair<std::string, double>> execution_term_seconds()
      const override {
    // Monomer task-seconds split into the machine charges and the rest
    // (the compute share the fitted power law predicts). Comm/memory rows
    // are reported whenever the machine models them — even when the Solve
    // step ignored those charges (machine_cost_terms = false), which is
    // exactly the predicted-0 / actual-nonzero gap the report surfaces.
    std::vector<std::pair<std::string, double>> out;
    out.emplace_back("powerlaw", hslb_.monomer_task_seconds -
                                     hslb_.comm_seconds - hslb_.page_seconds);
    const sim::Machine mach = machine();
    if (mach.models_communication())
      out.emplace_back("comm", hslb_.comm_seconds);
    if (mach.models_memory()) out.emplace_back("memory", hslb_.page_seconds);
    return out;
  }

  // -- Epoch execution --------------------------------------------------------
  // One SCC iteration (wave + sync) per epoch, then one dimer-phase epoch,
  // on an fmo::EpochRunner. A static run is these epochs with no
  // controller (Application::execute), so an untriggered adaptive run
  // matches it by construction.

  bool supports_epochs() const override { return true; }

  void begin_epochs(const SolveOutcome& solution) override {
    probe_and_fit_dimers();
    runner_ = std::make_unique<EpochRunner>(sys_, cost_, nodes_,
                                            dimer_predictions_, options_.run);
    runner_->install(solution.allocation);
  }

  EpochOutcome execute_epoch(std::size_t) override { return runner_->step(); }

  ResolveOutcome resolve(
      const std::vector<std::pair<std::string, perf::FitResult>>& fits,
      const SolveOutcome& incumbent) override {
    const long long budget = runner_->budget();
    auto tasks = make_budget_tasks(sys_, fits, std::min(hi_, budget));
    add_machine_terms(tasks);
    ResolveOutcome out = solver_.resolve(tasks, budget, incumbent.allocation);
    resolve_stats_.push_back(out.solution.solver);
    return out;
  }

  double migration_cost(const SolveOutcome& from,
                        const SolveOutcome& to) const override {
    (void)from;  // the runner compares against the installed layout
    return runner_->machine().migration_seconds(
        runner_->migration_volume(to.allocation));
  }

  double apply_allocation(const SolveOutcome& solution) override {
    const double stall =
        runner_->migrate(runner_->migration_volume(solution.allocation));
    runner_->install(solution.allocation);
    return stall;
  }

  double finish_epochs() override {
    hslb_ = runner_->finish();
    const std::size_t dlb_groups =
        options_.dlb_groups == 0 ? sys_.num_fragments() : options_.dlb_groups;
    dlb_ = run_dlb(sys_, cost_, GroupLayout::uniform(nodes_, dlb_groups),
                   options_.run);
    return hslb_.scc_seconds;
  }

  // -- BaselineReporter -------------------------------------------------
  double hslb_total_seconds() override { return hslb_.total_seconds; }
  double dlb_total_seconds() override { return dlb_.total_seconds; }

  // Substrate-specific outputs copied into PipelineResult by run_pipeline.
  double predicted_scc_seconds_ = 0.0;
  DimerPredictions dimer_predictions_;
  double dimer_min_r2_ = 1.0;
  ExecutionResult hslb_;
  ExecutionResult dlb_;
  std::vector<SolverStats> resolve_stats_;

 private:
  /// Extends each fragment's fitted model with the pinned machine charges:
  /// comm slope 1/bandwidth over the fragment's replicated halo volume
  /// (halo_gb per SCF neighbour, matching the runtime's charge), and the
  /// working set against node memory capacity. A no-op on unmodeled
  /// machines (infinite bandwidth/memory), which keep the fitted power law
  /// alone.
  void add_machine_terms(std::vector<BudgetTask>& tasks) const {
    if (!options_.machine_cost_terms) return;
    const sim::Machine mach = machine();
    if (!mach.models_communication() && !mach.models_memory()) return;
    const auto pairs = sys_.scf_neighbor_counts();
    for (std::size_t f = 0; f < tasks.size(); ++f) {
      const auto& frag = sys_.fragments[f];
      if (mach.models_communication() && frag.halo_gb > 0.0) {
        tasks[f].model.pin_comm(frag.halo_gb * static_cast<double>(pairs[f]),
                                1.0 / mach.link_gb_per_s);
      }
      if (mach.models_memory() && frag.memory_gb > 0.0) {
        tasks[f].model.pin_memory(frag.memory_gb, mach.memory_gb_per_node,
                                  mach.page_s_per_gb);
      }
    }
  }

  /// One noise draw derived from (stream, node count, repetition).
  double noisy(double true_seconds, std::size_t stream, long long n,
               std::uint64_t rep) const {
    const std::uint64_t seed = derive_seed(
        derive_seed(options_.seed, stream),
        static_cast<std::uint64_t>(n) * 4096 + rep);
    sim::NoiseModel noise(options_.bench_noise_cv, seed);
    return noise.perturb(true_seconds);
  }

  // Steps 1b/2b: probe and fit a representative dimer subset, then scale
  // every dimer's model from the nearest probed size.
  void probe_and_fit_dimers() {
    if (options_.dimer_probe_count == 0 || sys_.scf_dimers.empty()) return;
    // Pick probes spread across the combined-size range.
    std::vector<std::size_t> by_size(sys_.scf_dimers.size());
    for (std::size_t d = 0; d < by_size.size(); ++d) by_size[d] = d;
    auto size_of = [&](std::size_t d) {
      return sys_.fragments[sys_.scf_dimers[d].i].basis_functions +
             sys_.fragments[sys_.scf_dimers[d].j].basis_functions;
    };
    std::sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
      return size_of(a) < size_of(b);
    });
    std::vector<std::size_t> probes;
    const std::size_t want =
        std::min(options_.dimer_probe_count, sys_.scf_dimers.size());
    for (std::size_t k = 0; k < want; ++k) {
      const auto pos = want == 1 ? 0 : k * (by_size.size() - 1) / (want - 1);
      if (probes.empty() || probes.back() != by_size[pos])
        probes.push_back(by_size[pos]);
    }

    // Probe + fit each selected dimer at the same node counts (independent
    // per dimer, so this parallelizes like the monomer Gather/Fit stages).
    struct Probed {
      double nbf;
      perf::Model model;
      double r2;
    };
    std::vector<Probed> fitted(probes.size());
    parallel_for(options_.threads, probes.size(), [&](std::size_t k) {
      const std::size_t d = probes[k];
      const auto& pair = sys_.scf_dimers[d];
      const auto true_model =
          cost_.dimer(sys_.fragments[pair.i], sys_.fragments[pair.j]);
      perf::SampleSet samples;
      for (long long n : counts_) {
        for (std::uint64_t rep = 0; rep < options_.repetitions; ++rep) {
          samples.push_back(
              {static_cast<double>(n),
               noisy(true_model.eval(static_cast<double>(n)),
                     names_.size() + d, n, rep)});
        }
      }
      const auto fit = perf::fit(samples);
      fitted[k] = Probed{static_cast<double>(size_of(d)), fit.model, fit.r2};
    });
    for (const auto& p : fitted)
      dimer_min_r2_ = std::min(dimer_min_r2_, p.r2);

    // Scale every dimer's model from the nearest probed size: SCF work
    // grows ~ nbf^3 (a, d) and communication ~ nbf^2 (b).
    dimer_predictions_.models.resize(sys_.scf_dimers.size());
    for (std::size_t d = 0; d < sys_.scf_dimers.size(); ++d) {
      const double s = static_cast<double>(size_of(d));
      const Probed* nearest = &fitted.front();
      for (const auto& p : fitted) {
        if (std::fabs(p.nbf - s) < std::fabs(nearest->nbf - s)) nearest = &p;
      }
      const double work_ratio = std::pow(s / nearest->nbf, 3.0);
      const double comm_ratio = std::pow(s / nearest->nbf, 2.0);
      perf::Model m = nearest->model;
      m.a *= work_ratio;
      m.d *= work_ratio;
      m.b *= comm_ratio;
      dimer_predictions_.models[d] = m;
    }
  }

  const System& sys_;
  const CostModel& cost_;
  long long nodes_;
  const PipelineOptions& options_;
  long long hi_ = 0;
  std::vector<long long> counts_;
  std::vector<perf::Model> truth_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::size_t> index_of_;
  BudgetSolver solver_;
  std::unique_ptr<EpochRunner> runner_;  ///< closed-loop execution
};

}  // namespace

std::shared_ptr<Application> make_application(System sys, CostModel cost,
                                              long long nodes,
                                              PipelineOptions options) {
  HSLB_EXPECTS(nodes >= static_cast<long long>(sys.num_fragments()));
  HSLB_EXPECTS(options.fit_points >= 2);
  // FmoApplication holds const references; the aliasing shared_ptr keeps
  // one State alive that owns both the referenced inputs and the app.
  struct State {
    System sys;
    CostModel cost;
    PipelineOptions options;
    FmoApplication app;
    State(System s, CostModel c, long long n, PipelineOptions o)
        : sys(std::move(s)),
          cost(std::move(c)),
          options(std::move(o)),
          app(sys, cost, n, options) {}
  };
  auto state =
      std::make_shared<State>(std::move(sys), std::move(cost), nodes,
                              std::move(options));
  return std::shared_ptr<Application>(state, &state->app);
}

PipelineResult run_pipeline(const System& sys, const CostModel& cost,
                            long long nodes, const PipelineOptions& options) {
  HSLB_EXPECTS(nodes >= static_cast<long long>(sys.num_fragments()));
  HSLB_EXPECTS(options.fit_points >= 2);

  FmoApplication app(sys, cost, nodes, options);
  hslb::PipelineOptions engine_options;
  engine_options.threads = options.threads;
  engine_options.gather_repetitions = options.repetitions;
  engine_options.rebalance = options.rebalance;
  auto run = Pipeline(engine_options).run(app);

  PipelineResult out;
  out.bench = std::move(run.bench);
  out.fits = std::move(run.fits);
  out.allocation = std::move(run.solution.allocation);
  out.min_r2 = 1.0;
  double r2_sum = 0.0;
  for (const auto& [name, fit] : out.fits) {
    out.min_r2 = std::min(out.min_r2, fit.r2);
    r2_sum += fit.r2;
  }
  out.mean_r2 = r2_sum / static_cast<double>(out.fits.size());
  out.predicted_scc_seconds = app.predicted_scc_seconds_;
  out.dimer_predictions = std::move(app.dimer_predictions_);
  out.dimer_min_r2 = app.dimer_min_r2_;
  out.hslb = std::move(app.hslb_);
  out.dlb = std::move(app.dlb_);
  out.report = std::move(run.report);
  out.resolve_stats = std::move(app.resolve_stats_);
  return out;
}

}  // namespace hslb::fmo

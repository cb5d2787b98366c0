#include "fmo/driver.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common/contracts.hpp"

namespace hslb::fmo {

long long probe_ceiling(const System& sys, long long nodes) {
  return hslb::probe_ceiling(static_cast<long long>(sys.num_fragments()),
                             nodes);
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

WaveOptions wave_options(const PipelineOptions& options, long long nodes) {
  WaveOptions out = execution_options(options.run, nodes);
  out.fit_points = static_cast<long long>(options.fit_points);
  out.bench_noise_cv = options.bench_noise_cv;
  out.bench_seed = options.seed;
  out.objective = options.objective;
  out.machine_cost_terms = options.machine_cost_terms;
  return out;
}

/// The FMO substrate: the wave engine over hslb_workload, plus what is
/// FMO's — dimer probing before the dimer stage and the DLB baseline, run
/// on first use. Probe noise streams [0, F) are the monomer fragments (the
/// engine's Gather), [F, F + #dimers) the probed dimers.
class FmoApplication final : public WaveApplication {
 public:
  FmoApplication(std::shared_ptr<DimerStage> stage, long long nodes,
                 PipelineOptions options)
      : WaveApplication(hslb_workload(stage, options.run), nodes,
                        wave_options(options, nodes)),
        stage_(std::move(stage)),
        nodes_(nodes),
        options_(std::move(options)) {}

  std::string name() const override { return "fmo/" + stage_->system().name; }

  void begin_epochs(const SolveOutcome& solution) override {
    stage_->begin(probe_and_fit_dimers());
    WaveApplication::begin_epochs(solution);
  }

  ResolveOutcome resolve(
      const std::vector<std::pair<std::string, perf::FitResult>>& fits,
      const SolveOutcome& incumbent) override {
    ResolveOutcome out = WaveApplication::resolve(fits, incumbent);
    resolve_stats_.push_back(out.solution.solver);
    return out;
  }

  /// The SCC loop's seconds, the phase the allocation optimizes.
  double finish_epochs() override {
    WaveApplication::finish_epochs();
    return waves_seconds();
  }

  double dlb_total_seconds() override { return dlb().total_seconds; }

  /// The DLB baseline on the same system and run options; it does not
  /// depend on the HSLB run, so it runs once, on first use.
  const ExecutionResult& dlb() {
    if (!dlb_) {
      const System& sys = stage_->system();
      const std::size_t groups =
          options_.dlb_groups == 0 ? sys.num_fragments() : options_.dlb_groups;
      dlb_ = run_dlb(sys, stage_->cost(), GroupLayout::uniform(nodes_, groups),
                     options_.run);
    }
    return *dlb_;
  }

  // Substrate-specific outputs copied into PipelineResult by run_pipeline.
  DimerPredictions dimer_predictions_;
  double dimer_min_r2_ = 1.0;
  std::vector<SolverStats> resolve_stats_;

 private:
  // Steps 1b/2b: probe and fit a representative dimer subset, then scale
  // every dimer's model from the nearest probed size.
  DimerPredictions probe_and_fit_dimers() {
    const System& sys = stage_->system();
    if (options_.dimer_probe_count == 0 || sys.scf_dimers.empty()) return {};
    // Pick probes spread across the combined-size range.
    std::vector<std::size_t> by_size(sys.scf_dimers.size());
    for (std::size_t d = 0; d < by_size.size(); ++d) by_size[d] = d;
    auto size_of = [&](std::size_t d) {
      return sys.fragments[sys.scf_dimers[d].i].basis_functions +
             sys.fragments[sys.scf_dimers[d].j].basis_functions;
    };
    std::sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
      return size_of(a) < size_of(b);
    });
    std::vector<std::size_t> probes;
    const std::size_t want =
        std::min(options_.dimer_probe_count, sys.scf_dimers.size());
    for (std::size_t k = 0; k < want; ++k) {
      const auto pos = want == 1 ? 0 : k * (by_size.size() - 1) / (want - 1);
      if (probes.empty() || probes.back() != by_size[pos])
        probes.push_back(by_size[pos]);
    }

    // Probe + fit each selected dimer at the same node counts. At most
    // dimer_probe_count fits of a few microseconds each: a thread pool would
    // cost more to start and join than they do, so they run serially.
    struct Probed {
      double nbf;
      perf::Model model;
      double r2;
    };
    std::vector<Probed> fitted(probes.size());
    for (std::size_t k = 0; k < probes.size(); ++k) {
      const std::size_t d = probes[k];
      const auto& pair = sys.scf_dimers[d];
      const auto true_model =
          stage_->cost().dimer(sys.fragments[pair.i], sys.fragments[pair.j]);
      perf::SampleSet samples;
      for (long long n : probe_counts()) {
        for (std::uint64_t rep = 0; rep < options_.repetitions; ++rep) {
          samples.push_back(
              {static_cast<double>(n),
               noisy(true_model.eval(static_cast<double>(n)),
                     sys.num_fragments() + d, n, rep)});
        }
      }
      const auto fit = perf::fit(samples);
      fitted[k] = Probed{static_cast<double>(size_of(d)), fit.model, fit.r2};
    }
    for (const auto& p : fitted)
      dimer_min_r2_ = std::min(dimer_min_r2_, p.r2);

    // Scale every dimer's model from the nearest probed size: SCF work
    // grows ~ nbf^3 (a, d) and communication ~ nbf^2 (b).
    dimer_predictions_.models.resize(sys.scf_dimers.size());
    for (std::size_t d = 0; d < sys.scf_dimers.size(); ++d) {
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
    return dimer_predictions_;
  }

  std::shared_ptr<DimerStage> stage_;
  long long nodes_;
  PipelineOptions options_;
  std::optional<ExecutionResult> dlb_;
};

}  // namespace

std::shared_ptr<Application> make_application(System sys, CostModel cost,
                                              long long nodes,
                                              PipelineOptions options) {
  return std::make_shared<FmoApplication>(
      std::make_shared<DimerStage>(std::move(sys), std::move(cost)), nodes,
      std::move(options));
}

PipelineResult run_pipeline(const System& sys, const CostModel& cost,
                            long long nodes, const PipelineOptions& options) {
  const auto stage = std::make_shared<DimerStage>(sys, cost);
  FmoApplication app(stage, nodes, options);
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
  out.predicted_scc_seconds = run.solution.predicted_total;
  out.dimer_predictions = std::move(app.dimer_predictions_);
  out.dimer_min_r2 = app.dimer_min_r2_;
  out.hslb = hslb_result(app, options.run, *stage);
  out.dlb = app.dlb();
  out.report = std::move(run.report);
  out.resolve_stats = std::move(app.resolve_stats_);
  return out;
}

}  // namespace hslb::fmo

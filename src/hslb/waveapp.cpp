#include "hslb/waveapp.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "perf/terms.hpp"
#include "sim/noise.hpp"

namespace hslb {

namespace {

sim::Machine wave_machine(const WaveOptions& options, long long nodes) {
  if (options.machine.nodes == 0)
    return sim::Machine{"cluster", static_cast<std::size_t>(nodes), 1};
  HSLB_EXPECTS(options.machine.nodes >= static_cast<std::size_t>(nodes));
  return options.machine;
}

sim::Perturbation wave_perturbation(const WaveOptions& options,
                                    std::size_t machine_nodes) {
  sim::Perturbation p;
  p.noise_cv = options.noise_cv;
  p.seed = options.seed;
  if (options.straggler_cv > 0.0)
    p.node_slowdown = sim::Perturbation::stragglers(
        machine_nodes, options.straggler_cv, options.seed);
  p.fail_node = options.fail_node;
  p.fail_time = options.fail_time;
  p.fail_downtime = options.fail_downtime;
  return p;
}

}  // namespace

WaveApplication::WaveApplication(WaveWorkload workload, long long nodes,
                                 WaveOptions options)
    : workload_(std::move(workload)),
      nodes_(nodes),
      options_(std::move(options)),
      mach_(wave_machine(options_, nodes_)),
      perturb_(wave_perturbation(options_, mach_.nodes)),
      solver_(options_.objective, options_.solve_with_minlp,
              options_.bnb.gap_tol, static_cast<double>(workload_.waves),
              workload_.sync_overhead),
      core_(mach_, perturb_, nodes_) {
  const auto tasks = static_cast<long long>(workload_.tasks.size());
  HSLB_EXPECTS(tasks >= 1);
  HSLB_EXPECTS(nodes_ >= tasks);
  HSLB_EXPECTS(workload_.waves >= 1);
  HSLB_EXPECTS(options_.fit_points >= 2);
  // Same probe ceiling rationale as FMO: a task can never get more than
  // budget - (T-1) nodes, and probing past several fair shares is wasted.
  const long long fair = std::max<long long>(1, nodes_ / tasks);
  hi_ = std::max<long long>(8, std::min(nodes_ - tasks + 1, 8 * fair));
  counts_ = geometric_node_counts(
      1, hi_, static_cast<std::size_t>(options_.fit_points));
  for (std::size_t t = 0; t < workload_.tasks.size(); ++t)
    index_of_[workload_.tasks[t].name] = t;
  HSLB_EXPECTS(index_of_.size() == workload_.tasks.size());
}

std::string WaveApplication::name() const {
  return "wave/" + workload_.name;
}

GatherPlan WaveApplication::gather_plan() {
  GatherPlan plan;
  plan.reserve(workload_.tasks.size());
  for (const auto& t : workload_.tasks) plan.emplace_back(t.name, counts_);
  return plan;
}

double WaveApplication::noisy(double true_seconds, std::size_t stream,
                              long long n, std::uint64_t rep) const {
  const std::uint64_t seed =
      derive_seed(derive_seed(options_.bench_seed, stream),
                  static_cast<std::uint64_t>(n) * 4096 + rep);
  sim::NoiseModel noise(options_.bench_noise_cv, seed);
  return noise.perturb(true_seconds);
}

double WaveApplication::probe(const std::string& task, long long n,
                              std::uint64_t rep) {
  const auto it = index_of_.find(task);
  HSLB_ASSERT(it != index_of_.end());
  return noisy(workload_.tasks[it->second].truth.eval(static_cast<double>(n)),
               it->second, n, rep);
}

std::vector<BudgetTask> WaveApplication::budget_tasks(
    const std::vector<std::pair<std::string, perf::FitResult>>& fits,
    long long max_nodes) const {
  HSLB_EXPECTS(fits.size() == workload_.tasks.size());
  std::vector<BudgetTask> tasks;
  tasks.reserve(fits.size());
  for (const auto& [name, fit] : fits)
    tasks.push_back(BudgetTask{name, fit.model, 1, max_nodes});
  // Pinned machine term: each task's working set against node memory (no
  // halo traffic in the wave model, so no comm term). A no-op on machines
  // that do not model memory.
  if (mach_.models_memory()) {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (workload_.tasks[t].memory_gb > 0.0)
        tasks[t].model.pin_memory(workload_.tasks[t].memory_gb,
                                  mach_.memory_gb_per_node,
                                  mach_.page_s_per_gb);
      // The memory knapsack can force a wider span than the probe ceiling;
      // feasibility wins over staying inside the interpolated range.
      tasks[t].max_nodes =
          std::max(tasks[t].max_nodes, tasks[t].model.min_feasible_nodes());
    }
  }
  return tasks;
}

SolveOutcome WaveApplication::solve(
    const std::vector<std::pair<std::string, perf::FitResult>>& fits) {
  return solver_.solve(budget_tasks(fits, hi_), nodes_);
}

std::vector<long long> WaveApplication::nodes_of(
    const Allocation& allocation) const {
  HSLB_EXPECTS(allocation.tasks.size() == workload_.tasks.size());
  std::vector<long long> nodes;
  nodes.reserve(workload_.tasks.size());
  for (const auto& t : workload_.tasks)
    nodes.push_back(allocation.find(t.name).nodes);
  return nodes;
}

void WaveApplication::reset_run_state() {
  core_ = sim::EpochCore(mach_, perturb_, nodes_);
  wave_ = 0;
  done_ = false;
  pending_.assign(workload_.tasks.size(), 1);
  completed_ = true;
  task_seconds_ = 0.0;
  hslb_total_ = 0.0;
  dlb_ran_ = false;
  installed_ = false;
}

void WaveApplication::install(const Allocation& allocation) {
  alloc_nodes_ = nodes_of(allocation);
  blocks_ = core_.pack(alloc_nodes_);
  installed_ = true;
}

void WaveApplication::begin_epochs(const SolveOutcome& solution) {
  reset_run_state();
  install(solution.allocation);
}

EpochOutcome WaveApplication::execute_epoch(std::size_t) {
  HSLB_EXPECTS(installed_);
  EpochOutcome r;
  if (done_) {
    r.done = true;
    return r;
  }
  const double epoch_start = core_.clock();
  std::vector<sim::WaveSlot> wave;
  for (std::size_t t = 0; t < workload_.tasks.size(); ++t) {
    if (!pending_[t]) continue;
    const auto& task = workload_.tasks[t];
    wave.push_back({t, task.name,
                    task.truth.eval(static_cast<double>(alloc_nodes_[t])),
                    blocks_[t], {0.0, task.memory_gb}});
  }
  const sim::WaveRun w = core_.run_wave(wave, "wave" + std::to_string(wave_),
                                        workload_.sync_overhead);
  for (const auto& [t, seconds] : w.ran) {
    task_seconds_ += seconds;
    pending_[t] = 0;
  }
  for (const auto& [t, seconds] : w.observed) {
    r.observations.push_back({workload_.tasks[t].name,
                              static_cast<double>(alloc_nodes_[t]), seconds,
                              0});
  }
  if (w.failure) {
    r.failure_detected = true;
    if (core_.budget() < static_cast<long long>(workload_.tasks.size())) {
      // Survivors cannot host one node per task: unrecoverable.
      done_ = true;
      completed_ = false;
      r.done = true;
    }
  } else {
    ++wave_;
    pending_.assign(workload_.tasks.size(), 1);
    if (wave_ >= workload_.waves) done_ = true;
    r.done = done_;
    r.imbalance = w.imbalance;
  }
  r.epochs_remaining = static_cast<double>(workload_.waves - wave_);
  r.epoch_seconds = core_.clock() - epoch_start;
  return r;
}

ResolveOutcome WaveApplication::resolve(
    const std::vector<std::pair<std::string, perf::FitResult>>& fits,
    const SolveOutcome& incumbent) {
  const long long nodes = core_.budget();
  return solver_.resolve(budget_tasks(fits, std::min(hi_, nodes)), nodes,
                         incumbent.allocation);
}

double WaveApplication::migration_volume(const Allocation& next) const {
  const auto moved = core_.pack(nodes_of(next));
  double volume = 0.0;
  for (std::size_t t = 0; t < workload_.tasks.size(); ++t)
    if (!installed_ || moved[t] != blocks_[t])
      volume += workload_.tasks[t].memory_gb;
  return volume;
}

double WaveApplication::migration_cost(const SolveOutcome& from,
                                       const SolveOutcome& to) const {
  (void)from;  // compared against the installed layout
  return mach_.migration_seconds(migration_volume(to.allocation));
}

double WaveApplication::apply_allocation(const SolveOutcome& solution) {
  const double stall = core_.migrate(migration_volume(solution.allocation));
  install(solution.allocation);
  return stall;
}

double WaveApplication::finish_epochs() {
  // A run stopped before its last wave (a static run at a permanent-failure
  // pause) is incomplete.
  if (!done_) completed_ = false;
  hslb_total_ = core_.clock();
  return hslb_total_;
}

double WaveApplication::dlb_total_seconds() {
  if (!dlb_ran_) run_dlb_baseline();
  return dlb_total_;
}

void WaveApplication::run_dlb_baseline() {
  // Dynamic baseline on the same workload, machine, and noise draws: each
  // wave is a shared queue drained largest-first by uniform groups, waves
  // chained by the sync overhead. Phase/task names match the HSLB run, so
  // the keyed noise draws are shared between the two schedules.
  dlb_ran_ = true;
  const std::size_t G = options_.dlb_groups == 0 ? workload_.tasks.size()
                                                 : options_.dlb_groups;
  std::vector<sim::NodeSet> groups;
  groups.reserve(G);
  const std::size_t base = mach_.nodes / G;
  const std::size_t rem = mach_.nodes % G;
  std::size_t offset = 0;
  for (std::size_t g = 0; g < G; ++g) {
    const std::size_t size = base + (g < rem ? 1 : 0);
    groups.push_back({offset, size});
    offset += size;
  }

  std::vector<std::size_t> order(workload_.tasks.size());
  for (std::size_t t = 0; t < order.size(); ++t) order[t] = t;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return workload_.tasks[a].truth.eval(1.0) >
           workload_.tasks[b].truth.eval(1.0);
  });

  double start = 0.0;
  bool completed = true;
  for (long long w = 0; w < workload_.waves && completed; ++w) {
    std::vector<sim::Runtime::QueueTask> queue;
    queue.reserve(order.size());
    for (std::size_t t : order) {
      const perf::Model& truth = workload_.tasks[t].truth;
      queue.push_back({workload_.tasks[t].name,
                       [truth](long long n) {
                         return truth.eval(static_cast<double>(n));
                       },
                       "wave" + std::to_string(w), 0.0,
                       workload_.tasks[t].memory_gb});
    }
    const auto res =
        sim::Runtime::run_queue(mach_, groups, queue, perturb_, start);
    completed = res.completed;
    start = res.makespan + workload_.sync_overhead;
  }
  dlb_total_ = completed ? start : std::numeric_limits<double>::infinity();
}

std::vector<std::pair<std::string, double>>
WaveApplication::execution_term_seconds() const {
  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("powerlaw", task_seconds_ - core_.comm_seconds() -
                                   core_.page_seconds());
  if (mach_.models_communication())
    out.emplace_back("comm", core_.comm_seconds());
  if (mach_.models_memory()) out.emplace_back("memory", core_.page_seconds());
  return out;
}

}  // namespace hslb

#include "hslb/waveapp.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "perf/terms.hpp"
#include "sim/noise.hpp"

namespace hslb {

sim::Machine wave_machine(const ExecutionOptions& options, long long nodes) {
  HSLB_EXPECTS(nodes >= 1);
  if (options.machine.nodes == 0)
    return sim::Machine{"cluster", static_cast<std::size_t>(nodes), 1};
  HSLB_EXPECTS(options.machine.nodes >= static_cast<std::size_t>(nodes));
  return options.machine;
}

sim::Perturbation wave_perturbation(const ExecutionOptions& options,
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

long long probe_ceiling(long long tasks, long long nodes) {
  HSLB_EXPECTS(tasks >= 1);
  HSLB_EXPECTS(nodes >= tasks);
  const long long fair = std::max<long long>(1, nodes / tasks);
  return std::max<long long>(8, std::min(nodes - tasks + 1, 8 * fair));
}

WaveApplication::WaveApplication(WaveWorkload workload, long long nodes,
                                 WaveOptions options)
    : workload_(std::move(workload)),
      nodes_(nodes),
      options_(std::move(options)),
      mach_(wave_machine(options_, nodes_)),
      perturb_(wave_perturbation(options_, mach_.nodes)),
      solver_(options_.objective, minlp::BnbOptions{}.gap_tol,
              static_cast<double>(workload_.waves), workload_.sync_overhead),
      core_(mach_, perturb_, nodes_) {
  const auto tasks = static_cast<long long>(workload_.tasks.size());
  HSLB_EXPECTS(workload_.waves >= 1);
  HSLB_EXPECTS(options_.fit_points >= 2);
  for (const auto& stage : workload_.stages) HSLB_EXPECTS(stage.plan != nullptr);
  hi_ = probe_ceiling(tasks, nodes_);
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
  // Pinned machine terms: each task's halo traffic over link bandwidth and
  // its working set against node memory. No-ops on machines that model
  // neither.
  if (!options_.machine_cost_terms) return tasks;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const WaveTask& task = workload_.tasks[t];
    if (mach_.models_communication() && task.comm_gb > 0.0)
      tasks[t].model.pin_comm(task.comm_gb, 1.0 / mach_.link_gb_per_s);
    if (!mach_.models_memory()) continue;
    if (task.memory_gb > 0.0)
      tasks[t].model.pin_memory(task.memory_gb, mach_.memory_gb_per_node,
                                mach_.page_s_per_gb);
    // The memory knapsack can force a wider span than the probe ceiling;
    // feasibility wins over staying inside the interpolated range.
    tasks[t].max_nodes =
        std::max(tasks[t].max_nodes, tasks[t].model.min_feasible_nodes());
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
  stage_ = 0;
  wave_ = 0;
  done_ = false;
  pending_.assign(workload_.tasks.size(), 1);
  completed_ = true;
  busy_.assign(workload_.tasks.size(), 0.0);
  busy_node_seconds_ = 0.0;
  task_seconds_ = 0.0;
  waves_end_ = 0.0;
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
  const bool waves = stage_ == 0;
  const PlannedStage* stage = waves ? nullptr : &workload_.stages[stage_ - 1];
  // The epoch's plan: the pending tasks on their installed blocks, or where
  // the planned stage places its pending tasks.
  std::vector<std::size_t> pending;
  pending.reserve(pending_.size());
  for (std::size_t t = 0; t < pending_.size(); ++t)
    if (pending_[t]) pending.push_back(t);
  StagePlan plan;
  if (waves) {
    plan.slots.reserve(pending.size());
    for (std::size_t t : pending) plan.slots.push_back({t, blocks_[t], {}, t});
    plan.barrier_seconds = workload_.sync_overhead;
  } else {
    plan = stage->plan({pending, core_, alloc_nodes_, blocks_});
  }
  const std::vector<WaveTask>& tasks = waves ? workload_.tasks : stage->tasks;
  const bool drifted = waves && wave_ >= workload_.drift_onset;
  std::vector<sim::WaveSlot> slots;
  slots.reserve(plan.slots.size());
  for (const StageSlot& s : plan.slots) {
    HSLB_EXPECTS(s.task < tasks.size() && pending_[s.task]);
    HSLB_EXPECTS(!s.group || *s.group < workload_.tasks.size());
    const WaveTask& task = tasks[s.task];
    slots.push_back({task.name,
                     task.truth.eval(static_cast<double>(s.nodes.count)) *
                         (drifted ? task.drift : 1.0),
                     s.nodes, {task.comm_gb, task.memory_gb}, s.after});
  }
  const sim::WaveRun w =
      waves ? core_.run_wave(slots, workload_.phase + std::to_string(wave_),
                             "sync", plan.barrier_seconds)
            : core_.run_wave(slots, stage->phase, stage->barrier,
                             plan.barrier_seconds);
  for (const auto& [k, seconds] : w.ran) {
    const StageSlot& s = plan.slots[k];
    pending_[s.task] = 0;
    if (s.group) busy_[*s.group] += seconds;
    busy_node_seconds_ += seconds * static_cast<double>(s.nodes.count);
    if (waves) task_seconds_ += seconds;
  }
  // The monitor watches the allocated tasks only: a planned stage runs on
  // its own placement.
  if (waves) {
    for (const auto& [k, seconds] : w.observed) {
      const std::size_t t = plan.slots[k].task;
      r.observations.push_back({tasks[t].name,
                                static_cast<double>(alloc_nodes_[t]), seconds,
                                0});
    }
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
    if (waves) r.imbalance = w.imbalance;
    advance();
    r.done = done_;
  }
  const long long waves_left = waves ? workload_.waves - wave_ : 0;
  const std::size_t stages_done = stage_ == 0 ? 0 : stage_ - 1;
  r.epochs_remaining = static_cast<double>(
      waves_left +
      static_cast<long long>(workload_.stages.size() - stages_done));
  r.epoch_seconds = core_.clock() - epoch_start;
  return r;
}

void WaveApplication::advance() {
  if (stage_ == 0 && ++wave_ < workload_.waves) {
    pending_.assign(workload_.tasks.size(), 1);
    return;
  }
  if (stage_ == 0) waves_end_ = core_.clock();
  if (++stage_ > workload_.stages.size()) {
    done_ = true;
    return;
  }
  pending_.assign(workload_.stages[stage_ - 1].tasks.size(), 1);
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
  for (std::size_t t = 0; t < workload_.tasks.size(); ++t) {
    if (installed_ && moved[t] == blocks_[t]) continue;
    const WaveTask& task = workload_.tasks[t];
    volume += task.migration_gb > 0.0 ? task.migration_gb : task.memory_gb;
  }
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
  // A run stopped before its last epoch (a static run at a permanent-
  // failure pause) is incomplete.
  if (!done_) completed_ = false;
  if (stage_ == 0) waves_end_ = core_.clock();
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
  const std::size_t G = workload_.tasks.size();
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
      const WaveTask& task = workload_.tasks[t];
      const perf::Model truth = task.truth;
      const double scale = w >= workload_.drift_onset ? task.drift : 1.0;
      queue.push_back({task.name,
                       [truth, scale](long long n) {
                         return truth.eval(static_cast<double>(n)) * scale;
                       },
                       workload_.phase + std::to_string(w), task.comm_gb,
                       task.memory_gb});
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

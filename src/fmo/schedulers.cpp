#include "fmo/schedulers.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "common/stats.hpp"
#include "hslb/budget.hpp"
#include "sim/epoch.hpp"
#include "sim/runtime.hpp"

namespace hslb::fmo {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Tasks (by fragment or dimer index) in descending work order — the shared
/// counter in GAMESS hands out big fragments first.
template <typename SizeOf>
std::vector<std::size_t> descending_order(std::size_t count, SizeOf&& size_of) {
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return size_of(a) > size_of(b);
  });
  return order;
}

/// Combined dimer size key (basis functions).
double dimer_nbf(const System& sys, std::size_t d) {
  return static_cast<double>(sys.fragments[sys.scf_dimers[d].i].basis_functions +
                             sys.fragments[sys.scf_dimers[d].j].basis_functions);
}

/// Trace/noise label for an SCF dimer: both fragment names.
std::string dimer_name(const System& sys, std::size_t d) {
  return sys.fragments[sys.scf_dimers[d].i].name + "+" +
         sys.fragments[sys.scf_dimers[d].j].name;
}

/// The machine the run executes on: either the one the caller provided
/// (must cover the layout) or an Intrepid-like partition derived from it.
sim::Machine run_machine(const RunOptions& options, long long total_nodes) {
  HSLB_EXPECTS(total_nodes >= 1);
  if (options.machine.nodes == 0)
    return sim::Machine{"intrepid", static_cast<std::size_t>(total_nodes), 4};
  HSLB_EXPECTS(options.machine.nodes >=
               static_cast<std::size_t>(total_nodes));
  return options.machine;
}

sim::Perturbation make_perturbation(const RunOptions& options,
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

sim::EpochCore epoch_core(const RunOptions& options, long long total_nodes) {
  sim::Machine machine = run_machine(options, total_nodes);
  sim::Perturbation perturb = make_perturbation(options, machine.nodes);
  return sim::EpochCore(std::move(machine), std::move(perturb), total_nodes);
}

/// Records a fixed full-machine overhead event (sync barrier, ES tail).
void add_overhead(sim::Trace& trace, const std::string& name,
                  const std::string& phase, double start, double seconds) {
  trace.events.push_back(
      {name, phase, 0, trace.nodes, start, start + seconds, false});
}

/// Truth multiplier of fragment `f`'s monomer cost at SCC iteration `iter`
/// (RunOptions::task_scale drift injection; 1.0 outside the drift regime).
double drift_scale(const RunOptions& options, std::size_t f, int iter) {
  if (options.task_scale.empty() || iter < options.drift_onset) return 1.0;
  HSLB_ASSERT(f < options.task_scale.size());
  return options.task_scale[f];
}

}  // namespace

double ExecutionResult::efficiency(long long total_nodes) const {
  HSLB_EXPECTS(total_nodes >= 1);
  if (total_seconds <= 0.0) return 1.0;
  return busy_node_seconds / (static_cast<double>(total_nodes) * total_seconds);
}

double ExecutionResult::group_imbalance() const {
  if (group_busy.empty()) return 0.0;
  return stats::imbalance(group_busy);
}

ExecutionResult run_dlb(const System& sys, const CostModel& cost,
                        const GroupLayout& layout, const RunOptions& options) {
  HSLB_EXPECTS(!sys.fragments.empty());
  HSLB_EXPECTS(layout.num_groups() >= 1);
  HSLB_EXPECTS(options.scc_iterations >= 1);
  const sim::Machine machine = run_machine(options, layout.total_nodes());
  const sim::Perturbation perturb = make_perturbation(options, machine.nodes);

  ExecutionResult out;
  out.scc_iterations = options.scc_iterations;
  out.group_busy.assign(layout.num_groups(), 0.0);
  out.group_nodes = layout.sizes;
  out.trace.machine = machine.name;
  out.trace.nodes = machine.nodes;
  out.trace.cores_per_node = machine.cores_per_node;

  // Groups occupy contiguous node blocks in layout order from node 0.
  std::vector<sim::NodeSet> groups;
  groups.reserve(layout.num_groups());
  std::size_t offset = 0;
  for (long long size : layout.sizes) {
    groups.push_back({offset, static_cast<std::size_t>(size)});
    offset += static_cast<std::size_t>(size);
  }

  // Monomer models are reused every SCC iteration.
  std::vector<perf::Model> monomers;
  monomers.reserve(sys.fragments.size());
  for (const auto& f : sys.fragments) monomers.push_back(cost.monomer(f));
  const auto monomer_order = descending_order(
      sys.fragments.size(),
      [&](std::size_t i) { return sys.fragments[i].basis_functions; });
  // Per-fragment demand: one replicated halo per SCF neighbour, plus the
  // fragment's working set (both zero outside the comm scenario family).
  const auto pairs = sys.scf_neighbor_counts();

  // Drains one queue phase on the machine clock and folds the result into
  // the accumulators; returns the phase-end time (= queue makespan).
  auto drain = [&](const std::vector<sim::Runtime::QueueTask>& queue,
                   double clock, bool monomer_phase) {
    const auto res =
        sim::Runtime::run_queue(machine, groups, queue, perturb, clock);
    out.trace.append(res.trace);
    out.restarts += res.restarts;
    if (!res.completed) out.completed = false;
    out.comm_seconds += res.comm_seconds;
    out.page_seconds += res.page_seconds;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      out.group_busy[g] += res.group_busy[g];
      out.busy_node_seconds +=
          res.group_busy[g] * static_cast<double>(layout.sizes[g]);
      if (monomer_phase) out.monomer_task_seconds += res.group_busy[g];
    }
    return res.makespan;
  };

  double clock = 0.0;
  for (int iter = 0; iter < options.scc_iterations; ++iter) {
    const std::string phase = "scc" + std::to_string(iter);
    std::vector<sim::Runtime::QueueTask> queue;
    queue.reserve(monomer_order.size());
    for (std::size_t f : monomer_order) {
      const perf::Model model = monomers[f];
      const double scale = drift_scale(options, f, iter);
      queue.push_back(
          {sys.fragments[f].name,
           [model, scale](long long n) {
             return model.eval(static_cast<double>(n)) * scale;
           },
           phase,
           sys.fragments[f].halo_gb * static_cast<double>(pairs[f]),
           sys.fragments[f].memory_gb});
    }
    const double end = drain(queue, clock, true);
    out.scc_seconds += (end - clock) + options.sync_overhead;
    add_overhead(out.trace, "sync", phase, end, options.sync_overhead);
    clock = end + options.sync_overhead;
    if (iter + 1 == options.scc_iterations) {
      // Converged densities: record the monomer energies in pull order.
      for (std::size_t f : monomer_order)
        out.energy.monomer += monomer_energy(sys.fragments[f]);
    }
  }

  // Dimer phase.
  std::vector<perf::Model> dimers;
  dimers.reserve(sys.scf_dimers.size());
  for (const auto& d : sys.scf_dimers)
    dimers.push_back(cost.dimer(sys.fragments[d.i], sys.fragments[d.j]));
  const auto dimer_order = descending_order(
      dimers.size(), [&](std::size_t i) { return dimer_nbf(sys, i); });
  if (!dimers.empty()) {
    std::vector<sim::Runtime::QueueTask> queue;
    queue.reserve(dimer_order.size());
    for (std::size_t i : dimer_order) {
      const perf::Model model = dimers[i];
      queue.push_back(
          {dimer_name(sys, i),
           [model](long long n) { return model.eval(static_cast<double>(n)); },
           "dimer"});
    }
    const double end = drain(queue, clock, false);
    out.dimer_seconds = end - clock;
    clock = end;
    for (std::size_t i : dimer_order) {
      const auto& d = sys.scf_dimers[i];
      out.energy.scf_dimer += scf_dimer_correction(
          sys.fragments[d.i], sys.fragments[d.j], d.separation);
    }
  }
  const double es = cost.es_dimer_time(sys, layout.total_nodes());
  out.dimer_seconds += es;
  add_overhead(out.trace, "es-dimers", "dimer", clock, es);
  out.energy.es_dimer = fmo2_energy(sys).es_dimer;

  out.total_seconds = out.scc_seconds + out.dimer_seconds;
  return out;
}

// ---------------------------------------------------------------------------
// EpochRunner: the HSLB schedule, one barrier-aligned epoch at a time on the
// shared sim::EpochCore. run_hslb is this runner with no controller.

EpochRunner::EpochRunner(const System& sys, const CostModel& cost,
                         long long total_nodes,
                         const DimerPredictions& dimers,
                         const RunOptions& options)
    : sys_(sys),
      cost_(cost),
      dimers_(dimers),
      options_(options),
      core_(epoch_core(options, total_nodes)) {
  HSLB_EXPECTS(!sys_.fragments.empty());
  HSLB_EXPECTS(options_.scc_iterations >= 1);
  HSLB_EXPECTS(dimers_.models.empty() ||
               dimers_.models.size() == sys_.scf_dimers.size());
  HSLB_EXPECTS(options_.task_scale.empty() ||
               options_.task_scale.size() == sys_.fragments.size());
  monomers_.reserve(sys_.fragments.size());
  for (const auto& f : sys_.fragments) monomers_.push_back(cost_.monomer(f));
  const auto counts = sys_.scf_neighbor_counts();
  pairs_.assign(counts.begin(), counts.end());
  pending_monomers_.assign(sys_.fragments.size(), 1);
  pending_dimers_.assign(sys_.scf_dimers.size(), 1);
  monomer_energy_added_.assign(sys_.fragments.size(), 0);
  dimer_energy_added_.assign(sys_.scf_dimers.size(), 0);
  out_.scc_iterations = options_.scc_iterations;
  out_.group_busy.assign(sys_.fragments.size(), 0.0);
}

std::vector<long long> EpochRunner::nodes_of(
    const Allocation& allocation) const {
  HSLB_EXPECTS(allocation.tasks.size() == sys_.fragments.size());
  std::vector<long long> nodes;
  nodes.reserve(sys_.fragments.size());
  for (const auto& frag : sys_.fragments)
    nodes.push_back(allocation.find(frag.name).nodes);
  return nodes;
}

void EpochRunner::install(const Allocation& allocation) {
  group_nodes_ = nodes_of(allocation);
  frag_nodes_ = core_.pack(group_nodes_);
  out_.group_nodes = group_nodes_;
  installed_ = true;
}

bool EpochRunner::survives() {
  if (core_.budget() >= static_cast<long long>(sys_.fragments.size()))
    return true;
  done_ = true;
  out_.completed = false;
  return false;
}

EpochOutcome EpochRunner::step() {
  HSLB_EXPECTS(installed_);
  if (done_) {
    EpochOutcome r;
    r.done = true;
    return r;
  }
  return in_dimer_ ? run_dimer_unit() : run_scc_unit();
}

EpochOutcome EpochRunner::run_scc_unit() {
  const double epoch_start = core_.clock();
  std::vector<sim::WaveSlot> wave;
  for (std::size_t f = 0; f < sys_.fragments.size(); ++f) {
    if (!pending_monomers_[f]) continue;
    const auto& frag = sys_.fragments[f];
    wave.push_back({f, frag.name,
                    monomers_[f].eval(static_cast<double>(group_nodes_[f])) *
                        drift_scale(options_, f, iter_),
                    frag_nodes_[f],
                    {frag.halo_gb * static_cast<double>(pairs_[f]),
                     frag.memory_gb}});
    // Converged densities: the final iteration records monomer energies
    // at build (flags stop a re-run after a failure from double-counting).
    if (iter_ + 1 == options_.scc_iterations && !monomer_energy_added_[f]) {
      out_.energy.monomer += monomer_energy(frag);
      monomer_energy_added_[f] = 1;
    }
  }
  const sim::WaveRun w = core_.run_wave(
      wave, "scc" + std::to_string(iter_), options_.sync_overhead);
  for (const auto& [f, t] : w.ran) {
    out_.group_busy[f] += t;
    out_.busy_node_seconds += t * static_cast<double>(group_nodes_[f]);
    out_.monomer_task_seconds += t;
    pending_monomers_[f] = 0;
  }
  EpochOutcome r;
  for (const auto& [f, seconds] : w.observed) {
    r.observations.push_back({sys_.fragments[f].name,
                              static_cast<double>(group_nodes_[f]), seconds,
                              0});
  }
  if (w.failure) {
    r.failure_detected = true;
    r.done = !survives();
  } else {
    out_.scc_seconds = core_.clock();
    ++iter_;
    pending_monomers_.assign(sys_.fragments.size(), 1);
    if (iter_ >= options_.scc_iterations) in_dimer_ = true;
    r.imbalance = w.imbalance;
  }
  r.epochs_remaining =
      static_cast<double>(options_.scc_iterations - iter_) + 1.0;
  r.epoch_seconds = core_.clock() - epoch_start;
  return r;
}

EpochOutcome EpochRunner::run_dimer_unit() {
  const double epoch_start = core_.clock();
  sim::Runtime rt(core_.machine());
  const long long budget = core_.budget();

  std::vector<std::size_t> active;
  for (std::size_t d = 0; d < pending_dimers_.size(); ++d)
    if (pending_dimers_[d]) active.push_back(d);

  std::vector<std::pair<std::size_t, std::size_t>> built;  // (id, d)
  std::vector<long long> built_nodes;    // group size per task
  std::vector<std::size_t> built_group;  // ECT: monomer group (kNone = wave)
  std::vector<std::size_t> dimer_ids;
  if (!active.empty()) {
    const bool can_repartition =
        !dimers_.models.empty() &&
        static_cast<long long>(active.size()) <= budget;
    if (can_repartition) {
      // GDDI re-split: min-max wave over the pending dimers' predicted
      // models, blocks packed from the segment start.
      std::vector<BudgetTask> tasks;
      tasks.reserve(active.size());
      for (std::size_t d : active) {
        tasks.push_back(BudgetTask{"d" + std::to_string(d),
                                   dimers_.models[d], 1, budget});
      }
      const auto wave_alloc = solve_min_max(tasks, budget);
      std::size_t offset = core_.segment().first;
      for (std::size_t k = 0; k < active.size(); ++k) {
        const std::size_t d = active[k];
        const auto& pair = sys_.scf_dimers[d];
        const auto model =
            cost_.dimer(sys_.fragments[pair.i], sys_.fragments[pair.j]);
        const long long n = wave_alloc.tasks[k].nodes;
        const std::size_t id = rt.add_task(
            dimer_name(sys_, d), model.eval(static_cast<double>(n)),
            {offset, static_cast<std::size_t>(n)}, {}, "dimer", false);
        offset += static_cast<std::size_t>(n);
        built.emplace_back(id, d);
        built_nodes.push_back(n);
        built_group.push_back(kNone);
        dimer_ids.push_back(id);
      }
    } else {
      // ECT fallback onto the monomer groups, longest dimer first.
      const auto order = descending_order(active.size(), [&](std::size_t k) {
        return dimer_nbf(sys_, active[k]);
      });
      const std::size_t groups = group_nodes_.size();
      std::vector<double> pred_finish(groups, 0.0);
      std::vector<std::size_t> tail(groups, kNone);
      for (std::size_t k : order) {
        const std::size_t i = active[k];
        const auto& d = sys_.scf_dimers[i];
        std::size_t best = 0;
        double best_eta = std::numeric_limits<double>::infinity();
        for (std::size_t g = 0; g < groups; ++g) {
          const double ng = static_cast<double>(group_nodes_[g]);
          const double nbf = dimer_nbf(sys_, i);
          const double pred = dimers_.models.empty()
                                  ? nbf * nbf * nbf / ng
                                  : dimers_.models[i].eval(ng);
          const double eta = pred_finish[g] + pred;
          if (eta < best_eta) {
            best_eta = eta;
            best = g;
          }
        }
        pred_finish[best] = best_eta;
        const auto model =
            cost_.dimer(sys_.fragments[d.i], sys_.fragments[d.j]);
        std::vector<std::size_t> deps;
        if (tail[best] != kNone) deps.push_back(tail[best]);
        const std::size_t id = rt.add_task(
            dimer_name(sys_, i),
            model.eval(static_cast<double>(group_nodes_[best])),
            frag_nodes_[best], std::move(deps), "dimer", false);
        tail[best] = id;
        built.emplace_back(id, i);
        built_nodes.push_back(group_nodes_[best]);
        built_group.push_back(best);
        dimer_ids.push_back(id);
      }
    }
    // Dimer corrections in build order (longest first on the ECT path).
    for (const auto& b : built) add_dimer_energy(b.second);
  }
  // Aggregated ES dimers: analytic tail over the barrier span, scaled to
  // the surviving budget after a failure.
  const std::size_t es_id =
      rt.add_task("es-dimers", cost_.es_dimer_time(sys_, budget),
                  core_.segment(), std::move(dimer_ids), "dimer", true);

  const auto epoch = core_.run(rt, es_id);
  for (std::size_t k = 0; k < built.size(); ++k) {
    const auto [id, d] = built[k];
    if (!epoch.state.ran[id]) continue;
    const auto& ts = epoch.result.tasks[id];
    const double t = ts.end - ts.start;
    if (built_group[k] != kNone) out_.group_busy[built_group[k]] += t;
    out_.busy_node_seconds += t * static_cast<double>(built_nodes[k]);
    pending_dimers_[d] = 0;
  }

  EpochOutcome r;
  if (epoch.result.failure_paused) {
    r.failure_detected = true;
    r.done = !survives();
    r.epochs_remaining = 1.0;
  } else {
    done_ = true;
    r.done = true;
  }
  r.epoch_seconds = core_.clock() - epoch_start;
  return r;
}

void EpochRunner::add_dimer_energy(std::size_t d) {
  if (dimer_energy_added_[d]) return;
  const auto& pair = sys_.scf_dimers[d];
  out_.energy.scf_dimer += scf_dimer_correction(
      sys_.fragments[pair.i], sys_.fragments[pair.j], pair.separation);
  dimer_energy_added_[d] = 1;
}

double EpochRunner::migration_volume(const Allocation& next) const {
  HSLB_EXPECTS(installed_);
  const auto blocks = core_.pack(nodes_of(next));
  double volume = 0.0;
  for (std::size_t f = 0; f < sys_.fragments.size(); ++f) {
    const auto& frag = sys_.fragments[f];
    if (blocks[f] != frag_nodes_[f]) {
      volume += frag.memory_gb > 0.0
                    ? frag.memory_gb
                    : 8e-9 * static_cast<double>(frag.basis_functions) *
                          static_cast<double>(frag.basis_functions);
    }
  }
  return volume;
}

ExecutionResult EpochRunner::finish() {
  // A run stopped before it was done (by the caller, or for want of
  // survivors) is incomplete but still reports the full FMO2 energy: the
  // terms of work it never built are added here.
  if (!done_) out_.completed = false;
  for (std::size_t f = 0; f < sys_.fragments.size(); ++f)
    if (!monomer_energy_added_[f])
      out_.energy.monomer += monomer_energy(sys_.fragments[f]);
  for (std::size_t d = 0; d < sys_.scf_dimers.size(); ++d) add_dimer_energy(d);
  out_.energy.es_dimer = fmo2_energy(sys_).es_dimer;
  out_.trace = core_.trace();
  out_.restarts = core_.restarts();
  out_.comm_seconds = core_.comm_seconds();
  out_.page_seconds = core_.page_seconds();
  out_.total_seconds = core_.clock();
  if (!out_.completed && !in_dimer_) out_.scc_seconds = core_.clock();
  out_.dimer_seconds = out_.total_seconds - out_.scc_seconds;
  return std::move(out_);
}

ExecutionResult run_hslb(const System& sys, const CostModel& cost,
                         const Allocation& allocation, long long total_nodes,
                         const DimerPredictions& dimers,
                         const RunOptions& options) {
  // The closed loop with no controller: with nothing to reallocate, a
  // permanent-failure pause ends the run incomplete.
  EpochRunner runner(sys, cost, total_nodes, dimers, options);
  runner.install(allocation);
  EpochOutcome epoch;
  do {
    epoch = runner.step();
  } while (!epoch.done && !epoch.failure_detected);
  return runner.finish();
}

ExecutionResult run_hslb(const System& sys, const CostModel& cost,
                         const Allocation& allocation, long long total_nodes,
                         const RunOptions& options) {
  return run_hslb(sys, cost, allocation, total_nodes, DimerPredictions{}, options);
}

}  // namespace hslb::fmo

#include "fmo/schedulers.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "common/stats.hpp"
#include "hslb/budget.hpp"
#include "sim/runtime.hpp"

namespace hslb::fmo {

namespace {

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

/// FMO2 pair correction of SCF dimer `d`.
double dimer_correction(const System& sys, std::size_t d) {
  const auto& pair = sys.scf_dimers[d];
  return scf_dimer_correction(sys.fragments[pair.i], sys.fragments[pair.j],
                              pair.separation);
}

/// Trace/noise label for an SCF dimer: both fragment names.
std::string dimer_name(const System& sys, std::size_t d) {
  return sys.fragments[sys.scf_dimers[d].i].name + "+" +
         sys.fragments[sys.scf_dimers[d].j].name;
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
  const WaveOptions run = execution_options(options, layout.total_nodes());
  const sim::Machine machine = wave_machine(run, layout.total_nodes());
  const sim::Perturbation perturb = wave_perturbation(run, machine.nodes);

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
    for (std::size_t i : dimer_order)
      out.energy.scf_dimer += dimer_correction(sys, i);
  }
  const double es = cost.es_dimer_time(sys, layout.total_nodes());
  out.dimer_seconds += es;
  add_overhead(out.trace, "es-dimers", "dimer", clock, es);
  out.energy.es_dimer = fmo2_energy(sys).es_dimer;

  out.total_seconds = out.scc_seconds + out.dimer_seconds;
  return out;
}

// ---------------------------------------------------------------------------
// The HSLB schedule on the wave engine: FMO describes it, WaveApplication
// runs it. run_hslb is that engine with no controller.

DimerStage::DimerStage(System sys, CostModel cost)
    : sys_(std::move(sys)), cost_(std::move(cost)) {
  begin({});
}

void DimerStage::begin(DimerPredictions predictions) {
  HSLB_EXPECTS(predictions.models.empty() ||
               predictions.models.size() == sys_.scf_dimers.size());
  predictions_ = std::move(predictions);
  built_.assign(sys_.scf_dimers.size(), 0);
  scf_dimer_ = 0.0;
}

StagePlan DimerStage::plan(const StageView& view) {
  const long long budget = view.core.budget();
  StagePlan out;
  // Aggregated ES dimers: an analytic tail over the barrier span, scaled to
  // the surviving budget after a failure.
  out.barrier_seconds = cost_.es_dimer_time(sys_, budget);
  const auto& active = view.pending;
  if (active.empty()) return out;
  out.slots.reserve(active.size());
  if (!predictions_.models.empty() &&
      static_cast<long long>(active.size()) <= budget) {
    // GDDI re-split: min-max wave over the pending dimers' predicted
    // models, blocks packed from the segment start.
    std::vector<BudgetTask> tasks;
    tasks.reserve(active.size());
    for (std::size_t d : active) {
      tasks.push_back(BudgetTask{"d" + std::to_string(d),
                                 predictions_.models[d], 1, budget});
    }
    const auto wave_alloc = solve_min_max(tasks, budget);
    std::vector<long long> sizes;
    sizes.reserve(active.size());
    for (const auto& t : wave_alloc.tasks) sizes.push_back(t.nodes);
    const auto blocks = view.core.pack(sizes);
    for (std::size_t k = 0; k < active.size(); ++k)
      out.slots.push_back({active[k], blocks[k], {}, {}});
  } else {
    // ECT fallback onto the monomer groups, longest dimer first.
    const auto order = descending_order(active.size(), [&](std::size_t k) {
      return dimer_nbf(sys_, active[k]);
    });
    const std::size_t groups = view.nodes.size();
    std::vector<double> pred_finish(groups, 0.0);
    std::vector<std::optional<std::size_t>> tail(groups);
    for (std::size_t k : order) {
      const std::size_t i = active[k];
      std::size_t best = 0;
      double best_eta = std::numeric_limits<double>::infinity();
      for (std::size_t g = 0; g < groups; ++g) {
        const double ng = static_cast<double>(view.nodes[g]);
        const double nbf = dimer_nbf(sys_, i);
        const double pred = predictions_.models.empty()
                                ? nbf * nbf * nbf / ng
                                : predictions_.models[i].eval(ng);
        const double eta = pred_finish[g] + pred;
        if (eta < best_eta) {
          best_eta = eta;
          best = g;
        }
      }
      pred_finish[best] = best_eta;
      out.slots.push_back({i, view.blocks[best], tail[best], best});
      tail[best] = out.slots.size() - 1;
    }
  }
  // Dimer corrections in build order (longest first on the ECT path).
  for (const StageSlot& slot : out.slots) {
    if (built_[slot.task]) continue;
    scf_dimer_ += dimer_correction(sys_, slot.task);
    built_[slot.task] = 1;
  }
  return out;
}

EnergyBreakdown DimerStage::energy() const {
  EnergyBreakdown e;
  for (const auto& frag : sys_.fragments) e.monomer += monomer_energy(frag);
  e.scf_dimer = scf_dimer_;
  for (std::size_t d = 0; d < sys_.scf_dimers.size(); ++d)
    if (!built_[d]) e.scf_dimer += dimer_correction(sys_, d);
  e.es_dimer = fmo2_energy(sys_).es_dimer;
  return e;
}

WaveWorkload hslb_workload(const std::shared_ptr<DimerStage>& dimers,
                           const RunOptions& options) {
  const System& sys = dimers->system();
  const CostModel& cost = dimers->cost();
  HSLB_EXPECTS(!sys.fragments.empty());
  HSLB_EXPECTS(options.task_scale.empty() ||
               options.task_scale.size() == sys.fragments.size());
  WaveWorkload wl;
  wl.name = sys.name;
  wl.phase = "scc";
  wl.waves = options.scc_iterations;
  wl.sync_overhead = options.sync_overhead;
  wl.drift_onset = options.drift_onset;
  // Per-fragment demand: one replicated halo per SCF neighbour, plus the
  // fragment's working set (both zero outside the comm scenario family).
  // A rebalance moves the working set, or an nbf^2 density-matrix estimate
  // when the fragment models no memory.
  const auto pairs = sys.scf_neighbor_counts();
  for (std::size_t f = 0; f < sys.fragments.size(); ++f) {
    const auto& frag = sys.fragments[f];
    WaveTask task{frag.name, cost.monomer(frag), frag.memory_gb};
    task.comm_gb = frag.halo_gb * static_cast<double>(pairs[f]);
    task.migration_gb = frag.memory_gb > 0.0
                            ? frag.memory_gb
                            : 8e-9 * static_cast<double>(frag.basis_functions) *
                                  static_cast<double>(frag.basis_functions);
    if (!options.task_scale.empty()) task.drift = options.task_scale[f];
    wl.tasks.push_back(std::move(task));
  }
  PlannedStage stage{"dimer", "es-dimers", {},
                     [dimers](const StageView& view) {
                       return dimers->plan(view);
                     }};
  for (std::size_t d = 0; d < sys.scf_dimers.size(); ++d) {
    const auto& pair = sys.scf_dimers[d];
    stage.tasks.push_back(
        {dimer_name(sys, d),
         cost.dimer(sys.fragments[pair.i], sys.fragments[pair.j])});
  }
  wl.stages.push_back(std::move(stage));
  return wl;
}

WaveOptions execution_options(const RunOptions& options,
                              long long total_nodes) {
  HSLB_EXPECTS(total_nodes >= 1);
  WaveOptions out;
  static_cast<ExecutionOptions&>(out) = options;
  if (out.machine.nodes == 0)
    out.machine =
        sim::Machine{"intrepid", static_cast<std::size_t>(total_nodes), 4};
  return out;
}

ExecutionResult hslb_result(const WaveApplication& app,
                            const RunOptions& options,
                            const DimerStage& dimers) {
  const sim::EpochCore& core = app.core();
  ExecutionResult out;
  out.total_seconds = core.clock();
  out.scc_seconds = app.waves_seconds();
  out.dimer_seconds = out.total_seconds - out.scc_seconds;
  out.scc_iterations = options.scc_iterations;
  out.group_busy = app.busy_seconds();
  out.group_nodes = app.installed_nodes();
  out.busy_node_seconds = app.busy_node_seconds();
  out.energy = dimers.energy();
  out.trace = core.trace();
  out.completed = app.execution_completed();
  out.restarts = core.restarts();
  out.comm_seconds = core.comm_seconds();
  out.page_seconds = core.page_seconds();
  out.monomer_task_seconds = app.wave_task_seconds();
  return out;
}

ExecutionResult run_hslb(const System& sys, const CostModel& cost,
                         const Allocation& allocation, long long total_nodes,
                         const DimerPredictions& dimers,
                         const RunOptions& options) {
  // The closed loop with no controller: with nothing to reallocate, a
  // permanent-failure pause ends the run incomplete.
  const auto stage = std::make_shared<DimerStage>(sys, cost);
  stage->begin(dimers);
  WaveApplication app(hslb_workload(stage, options), total_nodes,
                      execution_options(options, total_nodes));
  SolveOutcome solution;
  solution.allocation = allocation;
  app.execute(solution);
  return hslb_result(app, options, *stage);
}

ExecutionResult run_hslb(const System& sys, const CostModel& cost,
                         const Allocation& allocation, long long total_nodes,
                         const RunOptions& options) {
  return run_hslb(sys, cost, allocation, total_nodes, DimerPredictions{}, options);
}

}  // namespace hslb::fmo

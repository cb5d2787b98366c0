#include "hslb/pipeline.hpp"

#include <chrono>
#include <cmath>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "hslb/controller.hpp"
#include "minlp/bnb.hpp"

namespace hslb {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

SolverStats SolverStats::from_bnb(const minlp::BnbResult& bnb,
                                  std::size_t solver_threads) {
  SolverStats out;
  out.status = minlp::to_string(bnb.status);
  out.nodes = bnb.nodes;
  out.cuts = bnb.cuts;
  out.gap = bnb.gap;
  out.rel_gap = bnb.rel_gap;
  out.seconds = bnb.seconds;
  out.threads =
      solver_threads == 0 ? ThreadPool::hardware_threads() : solver_threads;
  out.lp_solves = bnb.lp_solves;
  out.lp_pivots = bnb.lp_pivots;
  out.warm_solves = bnb.warm_solves;
  out.waves = bnb.waves;
  const lp::SolveStats& lp = bnb.lp_stats;
  out.flop_reduction = lp.flop_reduction();
  out.refactorizations = lp.refactorizations;
  out.basis_nnz = lp.basis_nnz;
  out.lu_fill = lp.lu_fill;
  out.ft_updates = lp.ft_updates;
  out.ft_fill_nnz = lp.ft_fill_nnz;
  out.refactor_interval_hits = lp.refactor_interval_hits;
  out.refactor_fill_hits = lp.refactor_fill_hits;
  out.refactor_drift_hits = lp.refactor_drift_hits;
  out.dual_pivots = lp.dual_pivots;
  out.phase1_pivots = lp.phase1_pivots;
  out.dual_phase1_avoided = lp.dual_phase1_avoided;
  out.presolve_rows_removed = lp.presolve_rows_removed;
  out.presolve_cols_removed = lp.presolve_cols_removed;
  out.bounds_tightened = bnb.bounds_tightened;
  out.nodes_propagated_infeasible = bnb.nodes_propagated_infeasible;
  out.cuts_retired = bnb.cuts_retired;
  out.cuts_reactivated = bnb.cuts_reactivated;
  return out;
}

double Application::execute(const SolveOutcome& solution) {
  HSLB_EXPECTS(supports_epochs());
  begin_epochs(solution);
  for (std::size_t epoch = 0;; ++epoch) {
    const EpochOutcome eo = execute_epoch(epoch);
    if (eo.done || eo.failure_detected) break;
  }
  return finish_epochs();
}

double PipelineReport::total_seconds() const {
  return gather_seconds + fit_seconds + solve_seconds + execute_seconds;
}

double PipelineReport::min_r2() const {
  double m = 1.0;
  for (const auto& f : fits) m = std::min(m, f.r2);
  return m;
}

double PipelineReport::mean_r2() const {
  if (fits.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& f : fits) sum += f.r2;
  return sum / static_cast<double>(fits.size());
}

double PipelineReport::prediction_error() const {
  if (predicted_total == 0.0) return 0.0;
  return (actual_total - predicted_total) / predicted_total;
}

double PipelineReport::term_predicted(const std::string& term) const {
  for (const auto& t : terms)
    if (t.term == term) return t.predicted_seconds;
  return 0.0;
}

double PipelineReport::term_actual(const std::string& term) const {
  for (const auto& t : terms)
    if (t.term == term) return t.actual_seconds;
  return 0.0;
}

std::string PipelineReport::str() const {
  std::string out = strings::format(
      "pipeline report — %s (%zu thread%s)\n", application.c_str(), threads,
      threads == 1 ? "" : "s");
  out += strings::format("  gather   %8.3f s  (%zu probes)\n", gather_seconds,
                         probes);
  out += strings::format(
      "  fit      %8.3f s  (%zu tasks, R^2 min %.4f mean %.4f)\n", fit_seconds,
      fits.size(), min_r2(), mean_r2());
  out += strings::format(
      "  solve    %8.3f s  (%s: %zu nodes, %zu cuts, gap %g (rel %g), "
      "%.3f s)\n",
      solve_seconds, solver.status.c_str(), solver.nodes, solver.cuts,
      solver.gap, solver.rel_gap, solver.seconds);
  if (solver.lp_solves > 0) {
    out += strings::format(
        "           solver: %zu thread%s, %zu waves, %zu LP solves "
        "(%zu warm), %zu pivots\n",
        solver.threads, solver.threads == 1 ? "" : "s", solver.waves,
        solver.lp_solves, solver.warm_solves, solver.lp_pivots);
    out += strings::format(
        "           sparse: kernel flops %.1fx down, %zu refactors, basis "
        "%zu nz -> LU %zu nz\n",
        solver.flop_reduction, solver.refactorizations, solver.basis_nnz,
        solver.lu_fill);
    out += strings::format(
        "           basis: %zu FT updates (+%zu nz), refactor triggers "
        "%zu fill / %zu drift / %zu interval; %zu dual / %zu phase-1 pivots, "
        "%zu warm re-solves dual-only\n",
        solver.ft_updates, solver.ft_fill_nnz, solver.refactor_fill_hits,
        solver.refactor_drift_hits, solver.refactor_interval_hits,
        solver.dual_pivots, solver.phase1_pivots, solver.dual_phase1_avoided);
    out += strings::format(
        "           presolve: %zu rows / %zu cols removed, %zu bounds "
        "tightened, %zu nodes pruned; cuts %zu retired / %zu reactivated\n",
        solver.presolve_rows_removed, solver.presolve_cols_removed,
        solver.bounds_tightened, solver.nodes_propagated_infeasible,
        solver.cuts_retired, solver.cuts_reactivated);
  }
  out += strings::format("  execute  %8.3f s\n", execute_seconds);
  if (!machine.empty())
    out += strings::format("           machine: %s\n", machine.c_str());
  if (exec_events > 0) {
    out += strings::format(
        "           runtime: makespan %.3f s, %zu events, occupancy %.1f%% "
        "(imbalance %.3f), %zu restart%s%s\n",
        exec.makespan, exec_events, 100.0 * exec.efficiency, exec.imbalance,
        exec_restarts, exec_restarts == 1 ? "" : "s",
        exec_completed ? "" : ", INCOMPLETE");
  }
  // Printed only when the closed loop actually acted, so a static run and
  // an untriggered adaptive run render byte-identically.
  if (rebalances > 0 || migration_seconds > 0.0) {
    out += strings::format(
        "           adaptive: %zu epochs, %zu rebalance%s, migration "
        "%.3f s, percent imbalance %.1f%%\n",
        epochs, rebalances, rebalances == 1 ? "" : "s", migration_seconds,
        exec.percent_imbalance);
  }
  if (!terms.empty()) {
    out += "           terms (task-seconds):";
    for (const auto& t : terms) {
      out += strings::format(" %s %.3f/%.3f", t.term.c_str(),
                             t.predicted_seconds, t.actual_seconds);
    }
    out += " (predicted/actual)\n";
  }
  out += strings::format(
      "  predicted %.3f s, actual %.3f s (error %+.1f%%)\n", predicted_total,
      actual_total, 100.0 * prediction_error());
  return out;
}

std::string PipelineReport::csv_header() {
  return "application,threads,gather_s,fit_s,solve_s,execute_s,probes,tasks,"
         "min_r2,mean_r2,solver_status,solver_nodes,solver_cuts,solver_gap,"
         "solver_rel_gap,solver_threads,solver_waves,solver_lp_solves,"
         "solver_warm_solves,solver_lp_pivots,solver_flop_reduction,"
         "solver_refactorizations,solver_basis_nnz,"
         "solver_lu_fill,solver_ft_updates,solver_ft_fill_nnz,"
         "solver_refactor_fill_hits,solver_refactor_drift_hits,"
         "solver_refactor_interval_hits,solver_dual_pivots,"
         "solver_phase1_pivots,solver_dual_phase1_avoided,"
         "solver_presolve_rows,solver_presolve_cols,"
         "solver_bounds_tightened,solver_nodes_propagated_infeasible,"
         "solver_cuts_retired,solver_cuts_reactivated,predicted_s,actual_s,"
         "machine,exec_makespan_s,exec_busy_node_s,exec_efficiency,"
         "exec_imbalance,exec_events,exec_restarts,exec_completed,"
         "comm_pred_s,comm_actual_s,mem_pred_s,mem_actual_s,"
         "exec_percent_imbalance,epochs,rebalances,migration_s";
}

std::string PipelineReport::csv_row() const {
  std::string row = strings::format(
      "%s,%zu,%.6f,%.6f,%.6f,%.6f,%zu,%zu,%.6f,%.6f,%s,%zu,%zu,%g,%g,%zu,%zu,"
      "%zu,%zu,%zu,%.3f,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,"
      "%zu,%zu,%zu,%zu,%zu,%zu,%.6f,%.6f",
      application.c_str(), threads, gather_seconds, fit_seconds, solve_seconds,
      execute_seconds, probes, fits.size(), min_r2(), mean_r2(),
      solver.status.c_str(), solver.nodes, solver.cuts, solver.gap,
      solver.rel_gap, solver.threads, solver.waves, solver.lp_solves,
      solver.warm_solves, solver.lp_pivots, solver.flop_reduction,
      solver.refactorizations, solver.basis_nnz, solver.lu_fill,
      solver.ft_updates, solver.ft_fill_nnz,
      solver.refactor_fill_hits, solver.refactor_drift_hits,
      solver.refactor_interval_hits, solver.dual_pivots, solver.phase1_pivots,
      solver.dual_phase1_avoided, solver.presolve_rows_removed,
      solver.presolve_cols_removed, solver.bounds_tightened,
      solver.nodes_propagated_infeasible, solver.cuts_retired,
      solver.cuts_reactivated, predicted_total, actual_total);
  HSLB_ASSERT(machine.find(',') == std::string::npos);
  row += strings::format(",%s,%.6f,%.6f,%.6f,%.6f,%zu,%zu,%d", machine.c_str(),
                         exec.makespan, exec.busy_unit_seconds, exec.efficiency,
                         exec.imbalance, exec_events, exec_restarts,
                         exec_completed ? 1 : 0);
  row += strings::format(",%.6f,%.6f,%.6f,%.6f", term_predicted("comm"),
                         term_actual("comm"), term_predicted("memory"),
                         term_actual("memory"));
  row += strings::format(",%.6f,%zu,%zu,%.6f", exec.percent_imbalance, epochs,
                         rebalances, migration_seconds);
  return row;
}

Pipeline::Pipeline(PipelineOptions options) : options_(std::move(options)) {
  HSLB_EXPECTS(options_.gather_repetitions >= 1);
}

PipelineRun Pipeline::run(Application& app) const {
  ThreadPool pool(options_.threads);
  return run(app, pool);
}

PipelineRun Pipeline::run(Application& app, ThreadPool& pool) const {
  PipelineRun out;
  out.report.application = app.name();
  out.report.threads = pool.size();

  // -- Step 1: Gather --------------------------------------------------------
  auto t0 = std::chrono::steady_clock::now();
  const GatherPlan plan = app.gather_plan();
  HSLB_EXPECTS(!plan.empty());
  out.bench.tasks.resize(plan.size());
  const std::size_t reps = options_.gather_repetitions;
  // Task-level parallelism: each task's probes run serially in plan order
  // inside one pool job; results land at the task's index, so the table is
  // identical for every thread count.
  pool.parallel_for(plan.size(), [&](std::size_t t) {
    const auto& [task, counts] = plan[t];
    HSLB_EXPECTS(!counts.empty());
    perf::TaskBench bench{task, {}};
    bench.samples.reserve(counts.size() * reps);
    for (long long n : counts) {
      HSLB_EXPECTS(n >= 1);
      for (std::uint64_t rep = 0; rep < reps; ++rep) {
        const double seconds = app.probe(task, n, rep);
        HSLB_EXPECTS(seconds > 0.0);
        bench.samples.push_back({static_cast<double>(n), seconds});
      }
    }
    out.bench.tasks[t] = std::move(bench);
  });
  for (const auto& t : out.bench.tasks) out.report.probes += t.samples.size();
  out.report.gather_seconds = seconds_since(t0);

  // -- Step 2: Fit -----------------------------------------------------------
  t0 = std::chrono::steady_clock::now();
  perf::FitOptions fit_opt = app.fit_options();
  fit_opt.threads = pool.size();
  out.fits = perf::fit_all(out.bench, fit_opt, &pool);
  for (const auto& [task, fit] : out.fits)
    out.report.fits.push_back({task, fit.r2});
  out.report.fit_seconds = seconds_since(t0);

  // -- Step 3: Solve ---------------------------------------------------------
  t0 = std::chrono::steady_clock::now();
  out.solution = app.solve(out.fits);
  if (out.solution.predicted_total == 0.0)
    out.solution.predicted_total = out.solution.allocation.predicted_total;
  out.report.solver = out.solution.solver;
  out.report.predicted_total = out.solution.predicted_total;
  out.report.solve_seconds = seconds_since(t0);

  // -- Step 4: Execute -------------------------------------------------------
  // The adaptive path routes execution through the closed-loop controller;
  // a static run is execute(), by default the same epochs with no
  // controller, so an adaptive run whose monitor never trips produces a
  // byte-identical report. The pool is idle here, so the controller runs
  // each trigger's refits on it.
  t0 = std::chrono::steady_clock::now();
  if (options_.rebalance.adaptive && app.supports_epochs()) {
    const Controller controller(options_.rebalance, fit_opt);
    const AdaptiveResult adaptive =
        controller.run(app, out.bench, out.fits, out.solution, pool);
    out.actual_total = adaptive.actual_total;
    out.report.rebalances = adaptive.rebalances;
    out.report.epochs = adaptive.rebalances + 1;
    out.report.migration_seconds = adaptive.migration_seconds;
  } else {
    out.actual_total = app.execute(out.solution);
  }
  out.report.actual_total = out.actual_total;
  out.report.execute_seconds = seconds_since(t0);

  // Execution-runtime observability: where the run was placed and what the
  // trace says about it.
  const sim::Machine machine = app.machine();
  if (machine.nodes > 0) {
    out.report.machine =
        strings::format("%s (%zu nodes x %zu cores)", machine.name.c_str(),
                        machine.nodes, machine.cores_per_node);
  }
  if (const sim::Trace* trace = app.execution_trace()) {
    out.trace = *trace;
    out.report.exec = Metrics::from_trace(*trace);
    out.report.exec_events = trace->events.size();
    for (const auto& e : trace->events)
      if (e.aborted) ++out.report.exec_restarts;
  }
  out.report.exec_completed = app.execution_completed();

  // Term-wise breakdown: Solve's predictions merged with Execute's actuals
  // by term name (actual-only terms get a zero-prediction row, so model
  // blind spots show up instead of vanishing).
  out.report.terms = out.solution.term_predictions;
  for (const auto& [term, seconds] : app.execution_term_seconds()) {
    bool merged = false;
    for (auto& row : out.report.terms) {
      if (row.term == term) {
        row.actual_seconds = seconds;
        merged = true;
        break;
      }
    }
    if (!merged) out.report.terms.push_back({term, 0.0, seconds});
  }

  return out;
}

}  // namespace hslb

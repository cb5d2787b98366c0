// Closed-loop adaptive rebalancing vs the static schedule and the DLB
// dynamic baseline, on the shared robustness scenario
// (fmo/scenario.hpp).
//
// Four experiments, three of them gated so CI smoke enforces the closed
// loop's value proposition:
//
//   * a straggler sweep — the full pipeline (Gather -> Fit -> Solve ->
//     Execute) run statically and adaptively at each severity, next to the
//     DLB baseline. GATES at cv=0.4: the adaptive run must degrade less
//     than 2.96x over its own noise-free baseline (the static schedule's
//     historical degradation at that severity), and must finish within 15%
//     of — or ahead of — the dynamic baseline;
//   * a permanent fail-stop — GATE: the static schedule wedges while the
//     closed loop re-solves over the survivors and completes, paying a
//     real migration stall on a communication-modelling machine;
//   * a mid-run cost drift — the drift monitor trips, the refitted
//     re-solve reacts, and every controller re-solve surfaces its solver
//     diagnostics;
//   * a warm-vs-cold re-solve A/B on the scenario's budget MINLP — GATE:
//     seeding the re-solve with the previous incumbent and cut pool
//     (BnbOptions::seed_incumbent / seed_points / seed_cuts) must search
//     fewer B&B nodes than the cold solve of the same model, at the same
//     objective.
//
// Headline numbers merge into BENCH_solver.json under "adaptive/...".
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_json.hpp"
#include "fmo/scenario.hpp"
#include "common/table.hpp"
#include "fmo/driver.hpp"
#include "hslb/budget.hpp"
#include "minlp/bnb.hpp"

namespace {

using namespace hslb;
namespace scenario = hslb::fmo::scenario;
using scenario::cv_label;
using scenario::kDlbGroups;
using scenario::kNodes;

constexpr const char* kJsonPath = "BENCH_solver.json";

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

fmo::PipelineOptions base_options() {
  fmo::PipelineOptions opt;
  opt.run = scenario::noise_free_run();
  opt.dlb_groups = kDlbGroups;
  opt.threads = 1;
  return opt;
}

fmo::PipelineOptions adaptive(const fmo::PipelineOptions& base) {
  fmo::PipelineOptions opt = base;
  opt.rebalance.adaptive = true;
  return opt;
}

}  // namespace

int main() {
  const auto sys = scenario::water24();
  const fmo::CostModel cost;
  int failures = 0;

  // --- Straggler sweep: static / adaptive / DLB degradation. -------------
  const std::vector<double> severities = scenario::straggler_severities();
  Table t({"straggler cv", "static s", "adaptive s", "DLB s", "static degr",
           "adaptive degr", "adaptive/DLB", "rebal"});
  double stat0 = 0.0, adap0 = 0.0, dlb0 = 0.0;
  double adap_degr_worst = 0.0, adap_over_dlb_worst = 0.0;
  for (double cv : severities) {
    fmo::PipelineOptions opt = base_options();
    opt.run.straggler_cv = cv;
    const auto stat = run_pipeline(sys, cost, kNodes, opt);
    // Straggler-tuned policy: per-node slowdowns are persistent, so a long
    // observation window with heavy weighting lets the refits converge on
    // the inflated per-fragment truth instead of chasing epoch noise.
    fmo::PipelineOptions aopt = adaptive(opt);
    aopt.rebalance.refit_window = 8;
    aopt.rebalance.observation_weight = 16.0;
    const auto adap = run_pipeline(sys, cost, kNodes, aopt);
    if (cv == 0.0) {
      stat0 = stat.hslb.total_seconds;
      adap0 = adap.hslb.total_seconds;
      dlb0 = stat.dlb.total_seconds;
    }
    const double stat_degr = stat.hslb.total_seconds / stat0;
    const double adap_degr = adap.hslb.total_seconds / adap0;
    const double dlb_degr = stat.dlb.total_seconds / dlb0;
    const double adap_over_dlb =
        adap.hslb.total_seconds / stat.dlb.total_seconds;
    if (cv == severities.back()) {
      adap_degr_worst = adap_degr;
      adap_over_dlb_worst = adap_over_dlb;
    }
    t.add_row({cv_label(cv), Table::num(stat.hslb.total_seconds, 3),
               Table::num(adap.hslb.total_seconds, 3),
               Table::num(stat.dlb.total_seconds, 3),
               Table::num(stat_degr, 3), Table::num(adap_degr, 3),
               Table::num(adap_over_dlb, 3),
               Table::num(static_cast<double>(adap.report.rebalances), 0)});
    bench::merge_json(
        kJsonPath, "adaptive/straggler_cv_" + cv_label(cv),
        {{"static_total_s", stat.hslb.total_seconds},
         {"adaptive_total_s", adap.hslb.total_seconds},
         {"dlb_total_s", stat.dlb.total_seconds},
         {"static_degradation", stat_degr},
         {"adaptive_degradation", adap_degr},
         {"dlb_degradation", dlb_degr},
         {"adaptive_over_dlb", adap_over_dlb},
         {"rebalances", static_cast<double>(adap.report.rebalances)},
         {"migration_s", adap.report.migration_seconds}});
  }
  std::printf("%zu fragments on %lld nodes; full pipeline per cell, common\n"
              "random numbers across the three schedulers per severity\n\n",
              sys.num_fragments(), kNodes);
  std::printf("%s\n", t.str().c_str());
  if (!(adap_degr_worst < 2.96)) {
    std::fprintf(stderr,
                 "FAIL: adaptive degradation %.3f at cv=%s not below the "
                 "static schedule's historical 2.96x\n",
                 adap_degr_worst, cv_label(severities.back()).c_str());
    ++failures;
  }
  if (!(adap_over_dlb_worst <= 1.15)) {
    std::fprintf(stderr,
                 "FAIL: adaptive %.3fx the DLB baseline at cv=%s (gate: "
                 "within 15%%)\n",
                 adap_over_dlb_worst, cv_label(severities.back()).c_str());
    ++failures;
  }

  // --- Permanent fail-stop: the static schedule wedges, the closed loop
  // completes and pays for the migration. ---------------------------------
  fmo::PipelineOptions fail = base_options();
  scenario::inject_fail_stop(fail.run);
  // A machine that models communication, so migration has a real price.
  fail.run.machine = sim::Machine{"intrepid", kNodes, 4};
  fail.run.machine.link_gb_per_s = 0.425;  // BG/P injection bandwidth
  const auto fail_stat = run_pipeline(sys, cost, kNodes, fail);
  const auto fail_adap = run_pipeline(sys, cost, kNodes, adaptive(fail));
  std::printf("permanent fail-stop of node %lld at t=%gs: static %s, "
              "adaptive %s (%zu rebalances, %.3fs migration)\n",
              scenario::kFailNode, scenario::kFailTime,
              fail_stat.hslb.completed ? "completed" : "INCOMPLETE",
              fail_adap.hslb.completed ? "completed" : "INCOMPLETE",
              fail_adap.report.rebalances,
              fail_adap.report.migration_seconds);
  bench::merge_json(
      kJsonPath, "adaptive/fail_stop",
      {{"static_completed", fail_stat.hslb.completed ? 1.0 : 0.0},
       {"adaptive_completed", fail_adap.hslb.completed ? 1.0 : 0.0},
       {"adaptive_total_s", fail_adap.hslb.total_seconds},
       {"rebalances", static_cast<double>(fail_adap.report.rebalances)},
       {"migration_s", fail_adap.report.migration_seconds},
       {"restarts", static_cast<double>(fail_adap.hslb.restarts)}});
  if (fail_stat.hslb.completed || !fail_adap.hslb.completed ||
      fail_adap.report.rebalances < 1 ||
      !(fail_adap.report.migration_seconds > 0.0)) {
    std::fprintf(stderr,
                 "FAIL: expected static INCOMPLETE and adaptive completed "
                 "with at least one rebalance and a positive migration "
                 "charge under a permanent node failure\n");
    ++failures;
  }

  // --- Mid-run cost drift: the drift monitor reacts. ---------------------
  fmo::PipelineOptions drift = base_options();
  drift.run.task_scale.assign(sys.fragments.size(), 1.0);
  drift.run.task_scale[0] = drift.run.task_scale[1] =
      drift.run.task_scale[2] = 4.0;
  drift.run.drift_onset = 3;
  fmo::PipelineOptions drift_adap = adaptive(drift);
  drift_adap.rebalance.imbalance_threshold = 0.15;
  drift_adap.rebalance.drift_threshold = 0.10;
  const auto drift_stat = run_pipeline(sys, cost, kNodes, drift);
  const auto drift_res = run_pipeline(sys, cost, kNodes, drift_adap);
  std::printf("4x cost drift on 3 fragments from iteration 3: static "
              "%.3fs, adaptive %.3fs (%zu rebalances)\n",
              drift_stat.hslb.total_seconds, drift_res.hslb.total_seconds,
              drift_res.report.rebalances);
  bench::merge_json(
      kJsonPath, "adaptive/drift",
      {{"static_total_s", drift_stat.hslb.total_seconds},
       {"adaptive_total_s", drift_res.hslb.total_seconds},
       {"rebalances", static_cast<double>(drift_res.report.rebalances)},
       {"migration_s", drift_res.report.migration_seconds}});
  // resolve_stats records every re-solve the controller ran, accepted or
  // rejected, so it bounds the accepted count from above.
  if (drift_res.report.rebalances < 1 ||
      drift_res.resolve_stats.size() < drift_res.report.rebalances) {
    std::fprintf(stderr,
                 "FAIL: the drift monitor must trip and every re-solve must "
                 "surface its diagnostics (%zu stats for %zu rebalances)\n",
                 drift_res.resolve_stats.size(),
                 drift_res.report.rebalances);
    ++failures;
  }

  // --- Warm vs cold re-solve on the scenario's budget MINLP. -------------
  // What a previous solve alone gives a re-solve: lift its allocation into
  // a feasible incumbent (minlp_warm_start), re-linearize at it, and insert
  // its cut pool. (The controller's re-solve is the certified greedy and
  // runs no tree; this A/B keeps the B&B's seeding measured.)
  // Heuristic dives are disabled on both sides so the measured pruning
  // comes from the seeds, not from the dive heuristic rediscovering the
  // optimum at the root.
  const auto tasks = scenario::oracle_tasks(sys, cost);
  const auto model = build_budget_minlp(tasks, kNodes, Objective::MinMax);
  minlp::BnbOptions cold_opt;
  cold_opt.heuristic_dives = false;
  const auto cold = minlp::solve(model, cold_opt);
  std::vector<long long> counts;
  const Allocation cold_alloc =
      allocation_from_minlp(tasks, cold.x, Objective::MinMax);
  counts.reserve(tasks.size());
  for (const auto& task : tasks) counts.push_back(cold_alloc.find(task.name).nodes);
  minlp::BnbOptions warm_opt = cold_opt;
  warm_opt.seed_incumbent = minlp_warm_start(tasks, counts, Objective::MinMax);
  warm_opt.seed_points = {warm_opt.seed_incumbent};
  warm_opt.seed_cuts = cold.pool_cuts;
  const auto warm = minlp::solve(model, warm_opt);
  std::printf("warm re-solve A/B: cold %zu B&B nodes (obj %.6f), warm %zu "
              "B&B nodes (obj %.6f), %zu seeded cuts\n",
              cold.nodes, cold.objective, warm.nodes, warm.objective,
              cold.pool_cuts.size());
  bench::merge_json(kJsonPath, "adaptive/warm_resolve",
                    {{"cold_nodes", static_cast<double>(cold.nodes)},
                     {"warm_nodes", static_cast<double>(warm.nodes)},
                     {"node_ratio", static_cast<double>(warm.nodes) /
                                        static_cast<double>(cold.nodes)},
                     {"seeded_cuts", static_cast<double>(cold.pool_cuts.size())},
                     {"cold_objective", cold.objective},
                     {"warm_objective", warm.objective}});
  if (!warm.has_solution || !close(warm.objective, cold.objective) ||
      warm.nodes >= cold.nodes) {
    std::fprintf(stderr,
                 "FAIL: warm re-solve must match the cold objective in "
                 "fewer B&B nodes (cold %zu, warm %zu)\n",
                 cold.nodes, warm.nodes);
    ++failures;
  }

  if (failures == 0) std::printf("results merged into %s\n", kJsonPath);
  return failures == 0 ? 0 : 1;
}

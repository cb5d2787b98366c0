// Execution robustness: how the HSLB static schedule and the DLB dynamic
// baseline degrade when the machine misbehaves.
//
// The paper's premise is that a *static* schedule wins when predictions are
// good; the classic objection is that static schedules are brittle when
// nodes straggle or fail. This bench quantifies both sides on the shared
// sim::Runtime:
//
//   * a straggler sweep — per-node slowdown factors max(1, lognormal(cv))
//     at several severities, shared between HSLB and DLB (common random
//     numbers), recording each scheduler's makespan degradation over its
//     own noise-free baseline;
//   * a permanent node fail-stop — the static schedule has work pinned to
//     the dead node and stops, incomplete, at the failure pause (no
//     controller re-solves), while the dynamic queue re-dispatches and
//     completes;
//   * a trace round-trip gate — the CSV export must reproduce the exact
//     makespan and busy node-seconds when parsed back (string round trip
//     and save/load through a temp file).
//
// Headline numbers merge into BENCH_solver.json under "execution/...";
// exits non-zero when the round-trip gate or the fail-stop asymmetry
// check fails, so CI smoke enforces both.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "fmo/scenario.hpp"
#include "common/table.hpp"
#include "fmo/schedulers.hpp"
#include "hslb/budget.hpp"
#include "sim/trace.hpp"

namespace {

using namespace hslb;
namespace scenario = hslb::fmo::scenario;
using scenario::cv_label;
using scenario::kDlbGroups;
using scenario::kNodes;

constexpr const char* kJsonPath = "BENCH_solver.json";

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Trace export gate: CSV string round trip and save/load must reproduce
/// the makespan and busy node-seconds exactly.
bool trace_round_trips(const sim::Trace& trace) {
  const sim::Trace parsed = sim::Trace::from_csv(trace.to_csv());
  bool ok = close(parsed.makespan(), trace.makespan()) &&
            close(parsed.busy_node_seconds(), trace.busy_node_seconds()) &&
            parsed.events.size() == trace.events.size();
  const auto path = std::filesystem::temp_directory_path() /
                    "hslb_execution_robustness_trace.csv";
  trace.save(path.string());
  const sim::Trace loaded = sim::Trace::load(path.string());
  ok = ok && close(loaded.makespan(), trace.makespan()) &&
       close(loaded.busy_node_seconds(), trace.busy_node_seconds()) &&
       loaded.events.size() == trace.events.size();
  std::filesystem::remove(path);
  ok = ok && !trace.to_json().empty();
  return ok;
}

}  // namespace

int main() {
  // System and allocation from the noise-free oracle: this bench isolates
  // execution-time perturbations, so Gather/Fit are skipped and the Solve
  // step runs directly on the true monomer models.
  const auto sys = scenario::water24();
  const fmo::CostModel cost;
  const auto tasks = scenario::oracle_tasks(sys, cost);
  const Allocation alloc = solve_min_max(tasks, kNodes);
  const auto layout = scenario::dlb_layout();

  const fmo::RunOptions base = scenario::noise_free_run();

  const std::vector<double> severities = scenario::straggler_severities();
  Table t({"straggler cv", "HSLB s", "DLB s", "HSLB degr", "DLB degr",
           "DLB/HSLB"});
  double hslb0 = 0.0, dlb0 = 0.0;
  for (double cv : severities) {
    fmo::RunOptions opt = base;
    opt.straggler_cv = cv;
    const auto hslb = run_hslb(sys, cost, alloc, kNodes, opt);
    const auto dlb = run_dlb(sys, cost, layout, opt);
    if (cv == 0.0) {
      hslb0 = hslb.total_seconds;
      dlb0 = dlb.total_seconds;
    }
    const double hslb_degr = hslb.total_seconds / hslb0;
    const double dlb_degr = dlb.total_seconds / dlb0;
    t.add_row({cv_label(cv), Table::num(hslb.total_seconds, 3),
               Table::num(dlb.total_seconds, 3), Table::num(hslb_degr, 3),
               Table::num(dlb_degr, 3),
               Table::num(dlb.total_seconds / hslb.total_seconds, 3)});
    bench::merge_json(
        kJsonPath, "execution/straggler_cv_" + cv_label(cv),
        {{"hslb_total_s", hslb.total_seconds},
         {"dlb_total_s", dlb.total_seconds},
         {"hslb_degradation", hslb_degr},
         {"dlb_degradation", dlb_degr},
         {"dlb_over_hslb", dlb.total_seconds / hslb.total_seconds},
         {"hslb_completed", hslb.completed ? 1.0 : 0.0},
         {"dlb_completed", dlb.completed ? 1.0 : 0.0}});
    if (cv == 0.2 && !trace_round_trips(hslb.trace)) {
      std::fprintf(stderr, "FAIL: trace CSV round trip diverged\n");
      return 1;
    }
  }
  std::printf("%zu fragments on %lld nodes, noise-free baseline; per-node\n"
              "slowdown factors max(1, lognormal(cv)) shared by both runs\n\n",
              sys.num_fragments(), kNodes);
  std::printf("%s\n", t.str().c_str());

  // Fail-stop asymmetry: node 0 dies permanently mid-SCC. The static
  // schedule has work pinned to it and cannot finish; the dynamic queue
  // retires one group and completes.
  fmo::RunOptions fail = base;
  scenario::inject_fail_stop(fail);
  const auto hslb_fail = run_hslb(sys, cost, alloc, kNodes, fail);
  const auto dlb_fail = run_dlb(sys, cost, layout, fail);
  std::printf("permanent fail-stop of node 0 at t=1s: HSLB %s (%zu restarts), "
              "DLB %s (%zu restarts)\n",
              hslb_fail.completed ? "completed" : "INCOMPLETE",
              hslb_fail.restarts, dlb_fail.completed ? "completed" : "INCOMPLETE",
              dlb_fail.restarts);
  bench::merge_json(kJsonPath, "execution/fail_stop",
                    {{"hslb_completed", hslb_fail.completed ? 1.0 : 0.0},
                     {"dlb_completed", dlb_fail.completed ? 1.0 : 0.0},
                     {"hslb_restarts", static_cast<double>(hslb_fail.restarts)},
                     {"dlb_restarts", static_cast<double>(dlb_fail.restarts)},
                     {"dlb_total_s", dlb_fail.total_seconds}});
  if (hslb_fail.completed || !dlb_fail.completed) {
    std::fprintf(stderr,
                 "FAIL: expected static INCOMPLETE and dynamic completed "
                 "under a permanent node failure\n");
    return 1;
  }
  std::printf("results merged into %s\n", kJsonPath);
  return 0;
}

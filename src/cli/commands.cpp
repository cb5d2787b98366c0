#include "cli/commands.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "cesm/advisor.hpp"
#include "cesm/pipeline.hpp"
#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "hslb/budget.hpp"
#include "hslb/registry.hpp"
#include "minlp/ampl.hpp"
#include "perf/fit.hpp"
#include "perf/modelio.hpp"
#include "service/service.hpp"
#include "sim/trace.hpp"
#include "substrates/registry_builtins.hpp"

namespace hslb::cli {

namespace {

Objective parse_objective(const std::string& s) {
  if (s == "min-max") return Objective::MinMax;
  if (s == "max-min") return Objective::MaxMin;
  if (s == "min-sum") return Objective::MinSum;
  HSLB_EXPECTS(!"unknown objective (use min-max, max-min, or min-sum)");
  return Objective::MinMax;
}

cesm::Resolution parse_resolution(long long r) {
  HSLB_EXPECTS(r == 1 || r == 8);
  return r == 1 ? cesm::Resolution::Deg1 : cesm::Resolution::EighthDeg;
}

/// Branch-and-bound knobs of the serve subcommand (its solve-kind misses).
void apply_bnb_args(const Args& args, minlp::BnbOptions& bnb) {
  bnb.solver_threads =
      static_cast<std::size_t>(args.get_int("solver-threads", 1LL, 0));
  bnb.presolve = !args.flag("no-presolve");
  bnb.cut_age_limit = static_cast<std::size_t>(args.get_int(
      "cut-age-limit", static_cast<long long>(bnb.cut_age_limit), 0));
  bnb.kelley.lp.refactor_interval = static_cast<std::size_t>(args.get_int(
      "refactor-interval",
      static_cast<long long>(bnb.kelley.lp.refactor_interval), 1));
  bnb.kelley.lp.refactor_fill_ratio = args.get_double(
      "refactor-fill-ratio", bnb.kelley.lp.refactor_fill_ratio, 1.0);
}

/// Execute-step perturbation knobs shared by the cesm and run subcommands
/// (both option structs carry the same four fields).
void apply_execution_args(const Args& args, double& straggler_cv,
                          long long& fail_node, double& fail_time,
                          double& fail_downtime) {
  straggler_cv = args.get_double("straggler-cv", straggler_cv, 0.0);
  const bool has_node = args.value("fail-node").has_value();
  const bool has_time = args.value("fail-time").has_value();
  const bool has_downtime = args.value("fail-downtime").has_value();
  if (has_node && !has_time) {
    throw std::invalid_argument(
        "--fail-node requires --fail-time (when does the node go down?)");
  }
  if (has_time && !has_node) {
    throw std::invalid_argument(
        "--fail-time requires --fail-node (which node fails?)");
  }
  if (has_downtime && !has_node) {
    throw std::invalid_argument(
        "--fail-downtime requires --fail-node (which node fails?)");
  }
  fail_node = args.get_int("fail-node", fail_node, -1);
  fail_time = args.get_double("fail-time", fail_time, 0.0);
  fail_downtime = args.get_double("fail-downtime", fail_downtime, 0.0);
}

/// Closed-loop rebalancing knobs shared by the cesm and run subcommands.
/// The sub-flags only make sense once --adaptive turns the controller on.
void apply_rebalance_args(const Args& args, RebalancePolicy& rebalance) {
  rebalance.adaptive = args.flag("adaptive");
  const bool has_threshold = args.value("rebalance-threshold").has_value();
  const bool has_window = args.value("refit-window").has_value();
  const bool has_epochs = args.value("max-epochs").has_value();
  if (!rebalance.adaptive && (has_threshold || has_window || has_epochs)) {
    throw std::invalid_argument(
        "--rebalance-threshold/--refit-window/--max-epochs require "
        "--adaptive (they tune the closed-loop controller)");
  }
  if (has_threshold) {
    // One sensitivity knob for both monitors: execution imbalance and
    // prediction drift trigger at the same relative level.
    const double t = args.get_double("rebalance-threshold",
                                     rebalance.imbalance_threshold, 0.0);
    rebalance.imbalance_threshold = t;
    rebalance.drift_threshold = t;
  }
  rebalance.refit_window = static_cast<std::size_t>(args.get_int(
      "refit-window", static_cast<long long>(rebalance.refit_window), 1));
  rebalance.max_epochs = static_cast<std::size_t>(args.get_int(
      "max-epochs", static_cast<long long>(rebalance.max_epochs), 0));
}

/// --trace <path>: export the Execute step's trace (CSV, or JSON when the
/// path ends in .json).
void maybe_save_trace(const Args& args, const sim::Trace& trace) {
  if (const auto path = args.value("trace")) {
    trace.save(*path);
    std::printf("trace (%zu events) written to %s\n", trace.events.size(),
                path->c_str());
  }
}

/// The scenario flags `hslb run` shares with its `hslb fmo` spelling:
/// everything but the substrate, variant and size.
ScenarioSpec scenario_args(const Args& args) {
  ScenarioSpec spec;
  spec.nodes = args.get_int("nodes", 0LL, 0);
  spec.system_seed =
      static_cast<std::uint64_t>(args.get_int("system-seed", 3LL, 0));
  spec.bench_seed =
      static_cast<std::uint64_t>(args.get_int("bench-seed", 42LL, 0));
  spec.bench_noise_cv =
      args.get_double("bench-noise-cv", spec.bench_noise_cv, 0.0);
  spec.fit_points = args.get_int("fit-points", spec.fit_points, 2);
  spec.objective = parse_objective(args.get("objective", "min-max"));
  spec.noise_cv = args.get_double("noise-cv", spec.noise_cv, 0.0);
  spec.run_seed = static_cast<std::uint64_t>(args.get_int("run-seed", 7LL, 0));
  apply_execution_args(args, spec.straggler_cv, spec.fail_node, spec.fail_time,
                       spec.fail_downtime);
  apply_rebalance_args(args, spec.rebalance);
  if (args.value("page-s-per-gb").has_value() &&
      !args.value("mem-gb").has_value()) {
    throw std::invalid_argument(
        "--page-s-per-gb requires --mem-gb (paging needs a memory capacity)");
  }
  spec.link_gb_per_s = args.get_double("link-gb", spec.link_gb_per_s, 0.0);
  spec.memory_gb_per_node = args.get_double("mem-gb", spec.memory_gb_per_node, 0.0);
  spec.page_s_per_gb = args.get_double("page-s-per-gb", 0.0, 0.0);
  spec.machine_cost_terms = !args.flag("compute-only-model");
  return spec;
}

/// Runs `spec` through the substrate registry and prints the pipeline
/// report, the HSLB vs DLB totals of substrates that track a baseline,
/// and --trace.
int run_scenario(const Args& args, const ScenarioSpec& spec) {
  substrates::register_builtin_substrates();
  const auto app = SubstrateRegistry::instance().make(spec);

  const auto threads =
      static_cast<std::size_t>(args.get_int("threads", 0LL, 0));
  const auto run = Pipeline(spec.pipeline_options(threads)).run(*app);

  std::printf("%s\n\n%s", spec.str().c_str(), run.report.str().c_str());
  if (auto* baseline = dynamic_cast<BaselineReporter*>(app.get())) {
    const double hslb = baseline->hslb_total_seconds();
    const double dlb = baseline->dlb_total_seconds();
    std::printf("HSLB %.3f s vs DLB %.3f s", hslb, dlb);
    if (run.report.exec_completed)
      std::printf("  =>  speedup %.2fx", dlb / hslb);
    std::printf("\n");
  }
  if (!run.report.exec_completed)
    std::printf("WARNING: the run could not complete (permanent node "
                "failure under a static schedule)\n");
  maybe_save_trace(args, run.trace);
  return 0;
}

}  // namespace

int usage(int code) {
  std::printf(
      "hslb — heuristic static load balancing via MINLP\n"
      "\n"
      "usage:\n"
      "  hslb fit    --bench bench.csv [--out models.csv] [--min-c C]\n"
      "                                 fit T(n)=a/n+b*n^c+d per task,\n"
      "                                 min-c <= c <= 3 (min-c in [0, 3])\n"
      "  hslb solve  --models models.csv --nodes N [--objective min-max]\n"
      "                                 budgeted node allocation\n"
      "  hslb cesm   --resolution 1|8 --nodes N [--layout 1|2|3]\n"
      "              [--unconstrained-ocean] [--tsync S] [--threads T]\n"
      "              [--export-ampl out.mod]\n"
      "              [--trace out.csv] [--straggler-cv CV] [--fail-node I]\n"
      "              [--fail-time S] [--fail-downtime S] [--adaptive]\n"
      "              [--rebalance-threshold X] [--refit-window K]\n"
      "              [--max-epochs N]\n"
      "                                 full simulated pipeline\n"
      "  hslb run    --substrate NAME [--variant V] [--tasks T] [--nodes N]\n"
      "              [--objective min-max] [--threads T]\n"
      "              [--fit-points P] [--system-seed S] [--bench-seed S]\n"
      "              [--bench-noise-cv CV] [--noise-cv CV] [--run-seed S]\n"
      "              [--link-gb GB/s] [--mem-gb GB] [--page-s-per-gb S]\n"
      "              [--compute-only-model]\n"
      "              [--trace out.csv] [--straggler-cv CV] [--fail-node I]\n"
      "              [--fail-time S] [--fail-downtime S] [--adaptive]\n"
      "              [--rebalance-threshold X] [--refit-window K]\n"
      "              [--max-epochs N]\n"
      "                                 any registered substrate, one engine\n"
      "  hslb fmo    [--fragments F] [--peptide|--comm-bound] [run flags]\n"
      "                                 hslb run --substrate fmo --tasks F\n"
      "                                 (F defaults to 48; --variant peptide\n"
      "                                 or comm)\n"
      "  hslb substrates                list registered substrates/variants\n"
      "\n"
      "  hslb advise --resolution 1|8 [--layout 1|2|3] [--efficiency 0.5]\n"
      "              [--min-nodes A] [--max-nodes B]  node-count planning\n"
      "\n"
      "  hslb serve  --script reqs.txt [--threads T] [--batch B]\n"
      "              [--cache-capacity N] [--no-warm-start]\n"
      "              [--solver-threads S] [--no-presolve]\n"
      "              [--cut-age-limit K] [--refactor-interval R]\n"
      "              [--refactor-fill-ratio F] [--responses out.txt]\n"
      "                                 allocation service (batched, cached)\n"
      "  hslb client --kind solve|fmo [--objective O] [--nodes N]\n"
      "              [--tasks name:a:b:c:d:min:max;...]\n"
      "              [--family water|peptide|comm] [--fragments F]\n"
      "              [--system-seed S] [--bench-seed S] [--noise-cv CV]\n"
      "              [--fit-points P] [--reps R] [--link-gb GB/s]\n"
      "              [--mem-gb GB] [--page-s-per-gb S] [--out reqs.txt]\n"
      "                                 format one service request line\n"
      "\n"
      "  serve replays a request script through the long-running allocation\n"
      "  service: exact repeats hit a bounded LRU solution cache, and every\n"
      "  solve-kind miss warm-starts its branch-and-bound from the nearest\n"
      "  cached instance (--no-warm-start solves every miss cold; fmo-kind\n"
      "  misses run the certified greedy, no tree). Requests are\n"
      "  processed in --batch-sized groups (part of the service definition,\n"
      "  like the B&B wave size); response payloads and the hit/miss\n"
      "  sequence are identical for every --threads value. client formats\n"
      "  one request per call and appends it to --out, so scripts are built\n"
      "  incrementally and replayed with serve.\n"
      "\n"
      "  --threads T parallelizes the Gather and Fit stages (0 = hardware\n"
      "  concurrency, the default of cesm, fmo and run; serve defaults to\n"
      "  1; allocations are identical for any T).\n"
      "  --solver-threads S (serve) parallelizes the branch-and-bound of\n"
      "  solve-kind misses (0 = hardware concurrency; results are\n"
      "  bit-identical for any S). No other command runs a tree: on fmo,\n"
      "  fmm and amrex the Solve is the exact greedy, certified optimal when\n"
      "  the fitted models are convex, and cesm solves its Table I layouts\n"
      "  exactly (certified optimal, 0 nodes; --export-ampl writes the MINLP\n"
      "  the paper hands to branch-and-bound), so run and cesm take no\n"
      "  solver knobs. fmo executes on the wave engine run uses for fmm and\n"
      "  amrex: its SCC loop as waves, its dimer phase as one planned stage.\n"
      "  serve's --no-presolve turns the LP presolve off for cold solver LPs;\n"
      "  --cut-age-limit K retires an OA cut after K consecutive slack\n"
      "  observations (0 keeps every cut forever).\n"
      "  --refactor-interval R caps basis updates between LP refactorizations\n"
      "  (>= 1); --refactor-fill-ratio F (>= 1.0) refactorizes earlier when\n"
      "  the Forrest-Tomlin updated factors grow past F times the fresh fill.\n"
      "  run drives the four-step engine over any substrate registered\n"
      "  with the SubstrateRegistry (fmo, cesm, fmm, amrex out of the box;\n"
      "  `hslb substrates` lists them with their variants). --tasks/--nodes\n"
      "  size the scenario (0 = the substrate's defaults); substrates that\n"
      "  track a dynamic baseline also print HSLB vs DLB totals. fmo is\n"
      "  run --substrate fmo spelled with --fragments and a variant flag.\n"
      "  The fmo variant comm is the communication-dominated cluster\n"
      "  (fragments carry halo volume and working-set memory); --link-gb /\n"
      "  --mem-gb / --page-s-per-gb give the machine a finite link and node\n"
      "  memory so the run charges for halo exchange and paging, and on\n"
      "  fmo, fmm and amrex the Solve step extends the fitted models with\n"
      "  matching comm/memory terms; --compute-only-model suppresses those\n"
      "  terms (the paper's compute-only regime) while the charges still\n"
      "  apply at execution.\n"
      "  --trace exports the Execute step's per-task trace (CSV, or JSON\n"
      "  when the path ends in .json). --straggler-cv slows random nodes\n"
      "  down; --fail-node I --fail-time S [--fail-downtime S] injects a\n"
      "  node fail-stop (downtime omitted = permanent).\n"
      "  --adaptive closes the loop: the Execute step runs in epochs and a\n"
      "  monitor -> refit -> re-solve -> migrate controller reacts to\n"
      "  imbalance, cost drift and node failures (never triggered, the run\n"
      "  is bit-identical to the static pipeline). --rebalance-threshold X\n"
      "  sets both trigger levels (relative imbalance and drift, default\n"
      "  0.25/0.10); --refit-window K refits over the last K epochs'\n"
      "  observations (default 4); --max-epochs N stops monitoring after N\n"
      "  epochs (0 = the whole run).\n");
  return code;
}

int cmd_fit(const Args& args) {
  const auto bench_path = args.value("bench");
  HSLB_EXPECTS(bench_path.has_value());
  const auto table = perf::BenchTable::load(*bench_path);

  perf::FitOptions opt;
  opt.min_c = args.get_double("min-c", 1.0, 0.0, 3.0);
  const auto fits = perf::fit_all(table, opt);

  // Significant digits, not fixed decimals: models of sub-nanosecond
  // samples must not print as zeros.
  const auto sig = [](double v) { return strings::format("%.6g", v); };
  Table out({"task", "a", "b", "c", "d", "R^2", "RMSE"});
  std::vector<perf::NamedModel> models;
  for (const auto& [task, fit] : fits) {
    out.add_row({task, sig(fit.model.a), sig(fit.model.b), sig(fit.model.c),
                 sig(fit.model.d), Table::num(fit.r2, 5), sig(fit.rmse)});
    models.push_back({task, fit.model, 1, 0});
  }
  std::printf("%s", out.str().c_str());
  if (const auto out_path = args.value("out")) {
    perf::save_models(*out_path, models);
    std::printf("models written to %s\n", out_path->c_str());
  }
  return 0;
}

int cmd_solve(const Args& args) {
  const auto models_path = args.value("models");
  HSLB_EXPECTS(models_path.has_value());
  const long long nodes = args.get_int("nodes", 0LL, 1);
  HSLB_EXPECTS(nodes >= 1);  // --nodes is required; the fallback trips this
  const auto objective = parse_objective(args.get("objective", "min-max"));

  const auto named = perf::load_models(*models_path);
  std::vector<BudgetTask> tasks;
  for (const auto& m : named) {
    tasks.push_back(BudgetTask{m.task, m.model, std::max<long long>(1, m.min_nodes),
                               m.max_nodes > 0 ? m.max_nodes : nodes});
  }
  const auto alloc = solve_budget(tasks, nodes, objective);
  std::printf("%s objective over %zu tasks, %lld-node budget:\n\n%s",
              to_string(objective).c_str(), tasks.size(), nodes,
              alloc.str().c_str());
  return 0;
}

int cmd_cesm(const Args& args) {
  const auto r = parse_resolution(args.get_int("resolution", 1LL, 1));
  const long long nodes = args.get_int("nodes", 128LL, 1);
  cesm::PipelineOptions opt;
  opt.layout = static_cast<cesm::Layout>(args.get_int("layout", 1LL, 1, 3));
  opt.ocean_constrained = !args.flag("unconstrained-ocean");
  opt.tsync = args.get_double(
      "tsync", std::numeric_limits<double>::infinity(), 0.0);
  opt.threads = static_cast<std::size_t>(args.get_int("threads", 0LL, 0));
  apply_execution_args(args, opt.straggler_cv, opt.fail_node, opt.fail_time,
                       opt.fail_downtime);
  apply_rebalance_args(args, opt.rebalance);

  const auto res = cesm::run_pipeline(r, nodes, opt);

  // A run a permanent failure stopped reports actuals only up to the stop.
  const bool partial = !res.coupled.completed;
  Table t({"component", "nodes", "fit R^2", "predicted s",
           partial ? "partial actual s" : "actual s"});
  for (cesm::Component c : cesm::kComponents) {
    const auto i = cesm::index(c);
    t.add_row({cesm::to_string(c),
               Table::num(static_cast<long long>(res.solution.nodes[i])),
               Table::num(res.fits[i].r2, 4),
               Table::num(res.solution.predicted_seconds[i], 2),
               Table::num(res.actual_seconds[i], 2)});
  }
  std::printf("CESM %s, %s, %lld nodes%s\n\n%s", cesm::to_string(r),
              cesm::to_string(opt.layout), nodes,
              opt.ocean_constrained ? "" : " (unconstrained ocean)",
              t.str().c_str());
  std::printf("total: predicted %.2f s, actual %.2f s%s "
              "(exact layout solve: certified optimal, %.3f ms)\n",
              res.solution.predicted_total, res.actual_total,
              partial ? " partial" : "", 1e3 * res.solution.seconds);
  std::printf("\n%s", res.report.str().c_str());
  if (!res.coupled.completed)
    std::printf("WARNING: the coupled run could not complete (permanent node "
                "failure)\n");
  maybe_save_trace(args, res.coupled.trace);

  if (const auto path = args.value("export-ampl")) {
    std::array<perf::Model, 4> models;
    for (cesm::Component c : cesm::kComponents)
      models[cesm::index(c)] = res.fits[cesm::index(c)].model;
    auto problem = cesm::make_problem(r, opt.layout, nodes, models,
                                      opt.ocean_constrained);
    problem.tsync = opt.tsync;
    minlp::AmplOptions ampl;
    ampl.header = strings::format("CESM %s %s, %lld nodes (Table I layout %d)",
                                  cesm::to_string(r),
                                  cesm::to_string(opt.layout), nodes,
                                  static_cast<int>(opt.layout));
    std::ofstream out(*path);
    HSLB_EXPECTS(out.good());
    out << minlp::to_ampl(cesm::build_layout_minlp(problem), ampl);
    std::printf("AMPL model written to %s\n", path->c_str());
  }
  return 0;
}

int cmd_substrates(const Args& args) {
  (void)args;
  substrates::register_builtin_substrates();
  Table t({"substrate", "variants", "description"});
  for (const auto& info : SubstrateRegistry::instance().list()) {
    std::string variants;
    for (const auto& v : info.variants) {
      if (!variants.empty()) variants += ", ";
      variants += v;
    }
    t.add_row({info.name, variants, info.description});
  }
  std::printf("%s\nrun one with: hslb run --substrate NAME [--variant V]\n",
              t.str().c_str());
  return 0;
}

int cmd_run(const Args& args) {
  const auto substrate = args.value("substrate");
  if (!substrate.has_value()) {
    throw std::invalid_argument(
        "run requires --substrate NAME (list them with `hslb substrates`)");
  }
  ScenarioSpec spec = scenario_args(args);
  spec.substrate = *substrate;
  spec.variant = args.get("variant", std::string());
  spec.tasks = args.get_int("tasks", 0LL, 0);
  return run_scenario(args, spec);
}

int cmd_fmo(const Args& args) {
  if (args.flag("comm-bound") && args.flag("peptide")) {
    throw std::invalid_argument(
        "--comm-bound and --peptide are mutually exclusive (pick one system)");
  }
  ScenarioSpec spec = scenario_args(args);
  spec.substrate = "fmo";
  spec.variant =
      args.flag("comm-bound") ? "comm" : args.flag("peptide") ? "peptide" : "water";
  spec.tasks = args.get_int("fragments", 48LL, 1);
  return run_scenario(args, spec);
}

int cmd_advise(const Args& args) {
  const auto r = parse_resolution(args.get_int("resolution", 1LL, 1));
  const auto layout =
      static_cast<cesm::Layout>(args.get_int("layout", 1LL, 1, 3));

  std::array<perf::Model, 4> models;
  for (cesm::Component c : cesm::kComponents)
    models[cesm::index(c)] = cesm::ground_truth(r, c);

  cesm::AdvisorOptions opt;
  opt.min_nodes = args.get_int("min-nodes", 128LL, 1);
  opt.max_nodes = args.get_int("max-nodes", 40960LL, 1);
  opt.efficiency_floor = args.get_double("efficiency", 0.5, 0.0, 1.0);
  const auto advice =
      cesm::advise_node_count(r, layout, models, true, opt);

  Table t({"nodes", "predicted s", "scaling efficiency"});
  for (const auto& pt : advice.sweep) {
    t.add_row({Table::num(static_cast<long long>(pt.nodes)),
               Table::num(pt.predicted_seconds, 2),
               Table::num(pt.efficiency, 3)});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("cost-efficient request (efficiency >= %.2f): %lld nodes "
              "(%.2f s predicted)\n",
              opt.efficiency_floor, advice.cost_efficient_nodes,
              advice.cost_efficient_seconds);
  std::printf("shortest time to solution: %lld nodes (%.2f s predicted)\n",
              advice.fastest_nodes, advice.fastest_seconds);
  return 0;
}

int cmd_serve(const Args& args) {
  const auto script_path = args.value("script");
  if (!script_path.has_value())
    throw std::invalid_argument("serve requires --script requests.txt");
  const auto script = service::load_script_file(*script_path);

  service::ServiceOptions opt;
  opt.threads = static_cast<std::size_t>(args.get_int("threads", 1LL, 0));
  opt.batch = static_cast<std::size_t>(args.get_int("batch", 8LL, 1));
  opt.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache-capacity", 64LL, 1));
  opt.warm_start = !args.flag("no-warm-start");
  apply_bnb_args(args, opt.bnb);

  service::AllocationService server(opt);
  const auto responses = server.run_script(script);

  for (std::size_t i = 0; i < responses.size(); ++i) {
    const auto& r = responses[i];
    std::printf("[%3zu] %-4s %s\n", i,
                r.cache_hit ? "HIT" : (r.warm_seeded ? "WARM" : "COLD"),
                r.to_line().c_str());
  }
  std::printf("\n%s", server.report().str().c_str());

  if (const auto out_path = args.value("responses")) {
    std::ofstream out(*out_path);
    if (!out)
      throw std::invalid_argument("cannot write responses to " + *out_path);
    // Payload lines only — the replay-determinism artifact: identical for
    // every --threads value.
    for (const auto& r : responses) out << r.to_line() << "\n";
  }
  return 0;
}

int cmd_client(const Args& args) {
  service::Request r;
  const std::string kind = args.get("kind", "solve");
  if (kind == "solve") {
    r.kind = service::RequestKind::Solve;
  } else if (kind == "fmo") {
    r.kind = service::RequestKind::Fmo;
  } else {
    throw std::invalid_argument("--kind must be solve or fmo");
  }
  r.objective = parse_objective(args.get("objective", "min-max"));
  r.budget = args.get_int("nodes", r.budget, 1);
  if (r.kind == service::RequestKind::Solve) {
    const auto tasks = args.value("tasks");
    if (!tasks.has_value()) {
      throw std::invalid_argument(
          "solve requests need --tasks name:a:b:c:d:min:max[;...]");
    }
    // Round-trip through the parser so malformed specs fail here, in the
    // client, not later in the server.
    r.tasks = service::parse_request("solve tasks=" + *tasks).tasks;
  } else {
    r.family = args.get("family", "water");
    r.fragments = args.get_int("fragments", 24LL, 1);
    r.system_seed =
        static_cast<std::uint64_t>(args.get_int("system-seed", 3LL, 0));
    r.bench_seed =
        static_cast<std::uint64_t>(args.get_int("bench-seed", 42LL, 0));
    r.noise_cv = args.get_double("noise-cv", 0.03, 0.0);
    r.fit_points = args.get_int("fit-points", 5LL, 2);
    r.repetitions = args.get_int("reps", 1LL, 1);
    r.link_gb = args.get_double("link-gb", r.link_gb, 0.0);
    r.mem_gb = args.get_double("mem-gb", r.mem_gb, 0.0);
    r.page_s_per_gb = args.get_double("page-s-per-gb", 0.0, 0.0);
  }

  // Canonicalize first: the client validates and normalizes, so scripts
  // contain exactly what the server will hash.
  const auto line = service::format_request(service::canonicalize(r));
  std::printf("%s\n", line.c_str());
  if (const auto out_path = args.value("out")) {
    std::ofstream out(*out_path, std::ios::app);
    if (!out)
      throw std::invalid_argument("cannot append request to " + *out_path);
    out << line << "\n";
  }
  return 0;
}

}  // namespace hslb::cli

// HSLB benchmark program.
//
//   hslb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out PATH] [--toy] [--plant lp-objective|over-budget]
//
// A run sets the workload up, then runs its closed loop for S seconds and
// at least the workload's deterministic prefix of ops, checking every op's
// outputs. Between ops it sets up eight more fresh copies at even steps of
// the run; setup_s is the median of the nine set-ups.
// With --trace 1 it then runs the prefix again with spans on (the
// forwarding Application decorator plus call-site spans) next to an
// untraced twin, and reports per-layer numbers instead of the end-to-end
// ones. The last line of stdout is one JSON object; the exit code is 1
// when any op failed its checks.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "substrates/registry_builtins.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
namespace stats = hslb::stats;

const std::vector<std::string> kWorkloads = {
    "pipeline_mix", "adaptive_straggler", "service_stream", "lp_scale"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config) {
  if (name == "pipeline_mix") return make_pipeline_workload(config, false);
  if (name == "adaptive_straggler") return make_pipeline_workload(config, true);
  if (name == "service_stream") return make_service_workload(config);
  if (name == "lp_scale") return make_lp_workload(config);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Set-ups per run: one before the timed phase and the rest spread over it,
/// so that setup_s samples the whole run, not one burst at its start.
constexpr std::size_t kSetups = 9;

struct Args {
  std::string workload;
  Config config;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: hslb_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--toy] "
               "[--plant lp-objective|over-budget]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.config.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--toy") {
      a.config.toy = true;
    } else if (flag == "--plant") {
      a.config.plant = value();
      if (a.config.plant != "lp-objective" && a.config.plant != "over-budget")
        usage("unknown --plant '" + a.config.plant + "'");
    } else {
      usage("unknown argument '" + flag + "'");
    }
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), a.workload) ==
      kWorkloads.end())
    usage("unknown --workload '" + a.workload + "'");
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace are required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string json_line(bool correct, std::size_t attempted, std::size_t failed,
                      const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-24s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

/// Results of one closed-loop phase.
struct Phase {
  std::vector<double> latencies;
  std::vector<double> dlb_ratios;  ///< prefix ops with a baseline
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  Layers layers;
};

/// Runs op `i` and folds its outcome into `p`; an op that throws counts as
/// failed. Baseline ratios are kept for the first `prefix` ops only.
void run_one(Workload& w, std::size_t i, std::size_t prefix, Tracer* tracer,
             Phase& p) {
  ++p.attempted;
  OpOutcome op;
  try {
    op = w.run_op(i, tracer);
  } catch (const std::exception& e) {
    op.failure = std::string("threw: ") + e.what();
  }
  if (!op.failure.empty()) {
    if (p.failed < 5)
      std::fprintf(stderr, "op %zu FAILED: %s\n", i, op.failure.c_str());
    ++p.failed;
  }
  p.latencies.push_back(op.latency_s);
  if (i < prefix && op.hslb_over_dlb > 0.0)
    p.dlb_ratios.push_back(op.hslb_over_dlb);
  for (const auto& [k, v] : op.layers) p.layers[k] += v;
}

/// Sets up a fresh copy of the workload and returns it with its set-up time.
std::pair<std::unique_ptr<Workload>, double> timed_setup(const Args& args) {
  const auto t0 = std::chrono::steady_clock::now();
  auto w = make_workload(args.workload, args.config);
  w->setup();
  return {std::move(w), seconds_since(t0)};
}

/// Runs ops until `args.seconds` of op time have passed and at least
/// `prefix` ops are done. After the op that crosses each k/kSetups of
/// `args.seconds`, it sets up a fresh copy of the workload (its time goes to
/// `setups`) and tears it down; neither counts in the phase's wall time.
Phase run_timed(Workload& w, const Args& args, std::size_t prefix,
                std::vector<double>& setups) {
  Phase p;
  const auto t0 = std::chrono::steady_clock::now();
  double aside = 0.0;  // seconds spent in the spread set-ups
  const auto op_time = [&] { return seconds_since(t0) - aside; };
  for (std::size_t i = 0; i < prefix || op_time() < args.seconds; ++i) {
    run_one(w, i, prefix, nullptr, p);
    while (setups.size() < kSetups &&
           op_time() >= args.seconds * static_cast<double>(setups.size()) /
                            kSetups) {
      const auto s0 = std::chrono::steady_clock::now();
      setups.push_back(timed_setup(args).second);
      aside += seconds_since(s0);
    }
  }
  p.wall_s = op_time();
  return p;
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Per-layer metrics in BENCHMARK.json order, with their units.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"op.s", "s"},
    {"op.count", "count"},
    {"gather.s", "s"},
    {"gather.probes", "count"},
    {"fit.s", "s"},
    {"fit.tasks", "count"},
    {"minlp.solve_s", "s"},
    {"minlp.nodes", "count"},
    {"minlp.cuts", "count"},
    {"minlp.waves", "count"},
    {"minlp.lp_solves", "count"},
    {"minlp.pruned_pre_lp", "count"},
    {"lp.solve_s", "s"},
    {"lp.pivots", "count"},
    {"lp.us_per_pivot", "us"},
    {"lp.refactorizations", "count"},
    {"lp.ft_updates", "count"},
    {"lp.dual_pivots", "count"},
    {"lp.warm_solves", "count"},
    {"lp.kernel_flops", "count"},
    {"execute.s", "s"},
    {"execute.events", "count"},
    {"controller.self_s", "s"},
    {"controller.resolve_s", "s"},
    {"controller.resolves", "count"},
    {"controller.accept_ratio", "ratio"},
    {"controller.epoch_s", "s"},
    {"controller.epochs", "count"},
    {"controller.rebalances", "count"},
    {"service.batch_s", "s"},
    {"service.solve_s", "s"},
    {"service.parallel_eff", "ratio"},
    {"service.hit_rate", "ratio"},
    {"service.misses", "count"},
    {"service.warm_solves", "count"},
    {"service.cold_solves", "count"},
    {"service.audit_fallbacks", "count"},
    {"service.evictions", "count"},
    {"service.warm_bnb_nodes", "count"},
    {"service.cold_bnb_nodes", "count"},
    {"hslb_over_dlb", "ratio"},
    {"trace.overhead", "ratio"},
};

std::vector<Metric> layer_metrics(const Phase& traced, double overhead) {
  Layers l = traced.layers;
  const auto ratio = [&](const char* a, const char* b) {
    return l[b] > 0.0 ? l[a] / l[b] : 0.0;
  };
  l["op.s"] = stats::sum(traced.latencies);
  l["op.count"] = static_cast<double>(traced.latencies.size());
  l["lp.us_per_pivot"] = 1e6 * ratio("lp.solve_s", "lp.pivots");
  l["controller.accept_ratio"] =
      ratio("controller.rebalances", "controller.resolves");
  l["service.parallel_eff"] = ratio("service.solve_s", "service.worker_s");
  l["service.hit_rate"] = ratio("service.hits", "service.requests");
  l["hslb_over_dlb"] = geomean(traced.dlb_ratios);
  l["trace.overhead"] = overhead;

  std::map<std::string, std::string> notes = {
      {"op.s", "client-timed"},
      {"lp.us_per_pivot",
       l["lp.solve_s"] > 0.0 ? "over " + std::to_string(static_cast<long long>(
                                             l["lp.pivots"])) + " pivots"
                             : "no lp::solve span"},
      {"service.solve_s", "summed over misses"},
      {"hslb_over_dlb", "geometric mean over " +
                            std::to_string(traced.dlb_ratios.size()) + " ops"},
      {"trace.overhead", "traced / untraced wall of the same ops - 1"},
  };
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    std::string note = notes[name];
    if (std::string(unit) == "s" && note.empty() && l["op.s"] > 0.0)
      note = std::to_string(std::lround(100.0 * l[name] / l["op.s"])) +
             "% of op time";
    out.push_back({name, l[name], unit, note});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  hslb::substrates::register_builtin_substrates();

  std::printf("perfbench %s: seed %llu, %.0f s, trace %d%s%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.config.seed), args.seconds,
              args.trace ? 1 : 0, args.config.toy ? ", toy sizes" : "",
              args.config.plant.empty()
                  ? ""
                  : (", planted " + args.config.plant).c_str());

  // -- Set-up, then the timed closed loop with tracing off. ----------------
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  Phase timed;
  try {
    auto [first, seconds] = timed_setup(args);
    w = std::move(first);
    setups.push_back(seconds);
    std::printf("  op: %s\n  closed loop, one client thread; prefix %zu ops\n",
                w->describe().c_str(), w->prefix_ops());
    timed = run_timed(*w, args, w->prefix_ops(), setups);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "set-up failed: %s\n", e.what());
    return 1;
  }
  const std::size_t n = timed.latencies.size();
  const double p50 = stats::median(timed.latencies);
  std::vector<Metric> e2e = {
      {"setup_s", stats::median(setups), "s",
       "median of " + std::to_string(setups.size()) + " set-ups"},
      {"ops_per_s", static_cast<double>(n) / timed.wall_s, "1/s",
       std::to_string(n) + " ops in " + std::to_string(timed.wall_s) + " s"},
      {"latency_p50_s", p50, "s", "n=" + std::to_string(n)},
      {"peak_rss_mb", peak_rss_mb(), "MB", ""},
  };
  std::printf("end-to-end (tracing off):\n");
  print_metrics(e2e);
  // Informational: p90 needs ten samples beyond it; the baseline ratio is
  // deterministic over the prefix.
  if (n >= 100)
    std::printf("  %-24s %14.6g %-6s n=%zu\n", "latency_p90_s",
                stats::percentile(timed.latencies, 90.0), "s", n);
  if (!timed.dlb_ratios.empty())
    std::printf("  %-24s %14.6g %-6s geometric mean over %zu prefix ops\n",
                "hslb_over_dlb", geomean(timed.dlb_ratios), "ratio",
                timed.dlb_ratios.size());
  std::printf("  %-24s %14.6g %-6s %zu of %zu ops failed\n", "fail_rate",
              static_cast<double>(timed.failed) /
                  static_cast<double>(timed.attempted),
              "ratio", timed.failed, timed.attempted);

  std::size_t attempted = timed.attempted, failed = timed.failed;
  std::vector<Metric> result = e2e;

  // -- Traced run: the prefix again, spans on. ------------------------------
  // An untraced twin, set up identically, runs each prefix op next to the
  // traced one (in alternating order), so the overhead compares the same
  // ops at nearly the same moment and host drift cancels.
  if (args.trace) {
    Tracer tracer;
    Phase traced, twin;
    const std::size_t k = w->prefix_ops();
    try {
      auto plain = make_workload(args.workload, args.config);
      plain->setup();
      w = make_workload(args.workload, args.config);
      w->setup();
      for (std::size_t i = 0; i < k; ++i) {
        if (i % 2 == 0) run_one(*plain, i, k, nullptr, twin);
        run_one(*w, i, k, &tracer, traced);
        if (i % 2 == 1) run_one(*plain, i, k, nullptr, twin);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "traced set-up failed: %s\n", e.what());
      return 1;
    }
    attempted += traced.attempted + twin.attempted;
    failed += traced.failed + twin.failed;
    const double untraced_s = stats::sum(twin.latencies);
    const double traced_s = stats::sum(traced.latencies);
    const double overhead = untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;
    result = layer_metrics(traced, overhead);
    std::printf("per layer (traced, %zu prefix ops):\n", k);
    print_metrics(result);
    std::printf("tracing overhead: ops_per_s %.6g untraced vs %.6g traced "
                "(the same %zu ops, interleaved: %+.1f%%)\n",
                static_cast<double>(k) / untraced_s,
                static_cast<double>(k) / traced_s, k, 100.0 * overhead);
    if (!args.trace_out.empty()) {
      tracer.write_chrome_json(args.trace_out, args.workload);
      std::printf("trace: %s\n", args.trace_out.c_str());
    }
  }

  std::printf("%s\n", json_line(failed == 0, attempted, failed, result).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

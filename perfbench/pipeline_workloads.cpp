// pipeline_mix and adaptive_straggler: one op is
//   SubstrateRegistry::make -> Pipeline::run -> baseline query -> checks
// over a deck of seeded scenarios that the op stream cycles through.
#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "cesm/component.hpp"
#include "cesm/simulator.hpp"
#include "common/rng.hpp"
#include "hslb/registry.hpp"
#include "traced_app.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using hslb::ScenarioSpec;

/// One deck slot: substrate, variant and nominal size. The seed jitters
/// the size (by one task and 5-7 nodes per task) and draws geometry, noise
/// and machine; the slot list itself is fixed so every seed runs the same
/// mix of substrates and sizes. A wider jitter (two tasks, 4-8 nodes per
/// task) doubled the seed-to-seed spread of latency_p50_s.
struct Slot {
  const char* substrate;
  const char* variant;
  long long tasks;  // 0 = sized by the variant (cesm)
  bool fail_stop = false;
};

// pipeline_mix: all four substrates, 11-29 tasks, MINLP Solve. fmo water
// and fmm uniform stop at 18-20 tasks: beyond that their B&B has a heavy
// tail (single ops of 1-2 s) that made ops_per_s depend on the seed.
const std::vector<Slot> kMixSlots = {
    {"fmo", "water", 16},      {"fmm", "uniform", 16},
    {"amrex", "clustered", 16}, {"cesm", "layout1", 0},
    {"fmo", "peptide", 20},    {"fmm", "adaptive", 16},
    {"amrex", "uniform", 28},  {"cesm", "layout2", 0},
    {"fmo", "comm", 12},       {"fmm", "uniform", 20},
    {"amrex", "clustered", 24}, {"cesm", "layout3", 0},
    {"fmo", "water", 18},      {"fmm", "adaptive", 28},
    {"amrex", "uniform", 12},  {"fmo", "peptide", 14},
};

// adaptive_straggler: 7-17 tasks on the substrates whose controller
// recovers from a fail-stop by shrinking a node segment; two slots in
// eight carry a permanent early fail-stop. The slots are sized so that each
// takes about the same time (about 1 s): the controller's work already
// varies by 15-25% from op to op with the straggler draws, and slots of
// unequal cost would add the spread of the run's slot mix to every median.
const std::vector<Slot> kAdaptiveSlots = {
    {"fmm", "adaptive", 12},   {"fmo", "comm", 10},
    {"amrex", "clustered", 16, true}, {"fmm", "uniform", 10},
    {"fmo", "peptide", 8, true}, {"amrex", "clustered", 16},
    {"fmm", "adaptive", 12},   {"fmo", "comm", 10},
};

/// Distinct scenarios drawn per run; a run of --seconds never gets through
/// them, so every op's inputs are a fresh draw.
constexpr std::size_t kDeckSize = 2000;

ScenarioSpec draw_spec(const Slot& slot, std::uint64_t seed, std::size_t i,
                       bool adaptive, bool toy) {
  hslb::Rng rng(hslb::derive_seed(seed, 0x5eed0000u + i));
  ScenarioSpec spec;
  spec.substrate = slot.substrate;
  spec.variant = slot.variant;
  if (slot.tasks > 0) {
    const long long base = toy ? std::min<long long>(slot.tasks, 6) : slot.tasks;
    spec.tasks = std::max<long long>(4, base + rng.uniform_int(-1, 1));
    spec.nodes = spec.tasks * rng.uniform_int(5, 7);
  } else {
    spec.nodes = 32 * rng.uniform_int(3, 6);
  }
  spec.system_seed = hslb::derive_seed(seed, 3 * i + 1);
  spec.bench_seed = hslb::derive_seed(seed, 3 * i + 2);
  spec.run_seed = hslb::derive_seed(seed, 3 * i + 3);
  spec.fit_points = 4;
  spec.minlp = true;

  const double bench_draws[] = {0.0, 0.02, 0.05};
  const double exec_draws[] = {0.0, 0.02, 0.05};
  spec.bench_noise_cv = bench_draws[rng.uniform_int(0, 2)];
  spec.noise_cv = exec_draws[rng.uniform_int(0, 2)];
  if (adaptive) {
    spec.straggler_cv = rng.uniform(0.2, 0.5);
    spec.rebalance.adaptive = true;
    if (slot.fail_stop) {
      spec.fail_node = 0;
      spec.fail_time = 0.5;
    }
  } else {
    const double straggler_draws[] = {0.0, 0.0, 0.1, 0.2};
    spec.straggler_cv = straggler_draws[rng.uniform_int(0, 3)];
  }
  return spec;
}

hslb::cesm::Layout cesm_layout(const std::string& variant) {
  if (variant == "layout1") return hslb::cesm::Layout::Hybrid;
  if (variant == "layout2") return hslb::cesm::Layout::SequentialAtmGroup;
  return hslb::cesm::Layout::FullySequential;
}

/// Nodes the allocation occupies at once under the substrate's layout:
/// CESM layouts run some components one after another on a shared block.
long long peak_nodes(const ScenarioSpec& spec, const hslb::Allocation& a) {
  if (spec.substrate != "cesm") return a.total_nodes();
  std::array<long long, 4> nodes{};
  for (const auto c : hslb::cesm::kComponents)
    nodes[hslb::cesm::index(c)] = a.find(hslb::cesm::to_string(c)).nodes;
  return hslb::cesm::Simulator::layout_width(cesm_layout(spec.variant), nodes);
}

const Span* find_span(const std::vector<Span>& spans, const char* name) {
  for (const auto& s : spans)
    if (s.name == name) return &s;
  return nullptr;
}

/// Per-layer numbers of one traced op, from its spans and the report.
Layers pipeline_layers(const std::vector<Span>& spans,
                       const hslb::PipelineReport& r, bool adaptive) {
  Layers l;
  std::vector<std::pair<double, double>> hooks, gather;
  for (const auto& s : spans) {
    if (s.name.rfind("app.", 0) != 0) continue;
    hooks.emplace_back(s.start, s.end);
    if (s.name == "app.probe" || s.name == "app.gather_plan")
      gather.emplace_back(s.start, s.end);
    if (s.name == "app.execute") l["execute.s"] += s.seconds();
    if (s.name == "app.resolve") {
      l["controller.resolve_s"] += s.seconds();
      l["controller.resolves"] += 1;
    }
    if (s.name == "app.execute_epoch") {
      l["controller.epoch_s"] += s.seconds();
      l["controller.epochs"] += 1;
    }
  }
  const Span* run = find_span(spans, "pipeline.run");
  const Span* solve = find_span(spans, "app.solve");
  const Span* baseline = find_span(spans, "baseline");
  const double pipeline_self = run->seconds() - covered_seconds(hooks);
  double controller_self = 0.0;
  if (adaptive) {
    // Execute stage: from the end of Solve for execute_seconds. Whatever
    // it spends outside the application's hooks is the controller's own
    // work (monitor, refit, accept test).
    const double lo = solve->end, hi = solve->end + r.execute_seconds;
    std::vector<std::pair<double, double>> inside;
    for (const auto& [a, b] : hooks)
      if (a >= lo && a < hi) inside.emplace_back(a, std::min(b, hi));
    controller_self = std::max(0.0, r.execute_seconds - covered_seconds(inside));
  }
  l["gather.s"] = covered_seconds(gather);
  l["gather.probes"] = static_cast<double>(r.probes);
  l["fit.s"] = std::max(0.0, pipeline_self - controller_self);
  l["fit.tasks"] = static_cast<double>(r.fits.size());
  l["minlp.solve_s"] = solve->seconds();
  l["minlp.nodes"] = static_cast<double>(r.solver.nodes);
  l["minlp.cuts"] = static_cast<double>(r.solver.cuts);
  l["minlp.waves"] = static_cast<double>(r.solver.waves);
  l["minlp.lp_solves"] = static_cast<double>(r.solver.lp_solves);
  l["minlp.pruned_pre_lp"] =
      static_cast<double>(r.solver.nodes_propagated_infeasible);
  l["lp.pivots"] = static_cast<double>(r.solver.lp_pivots);
  l["lp.refactorizations"] = static_cast<double>(r.solver.refactorizations);
  l["lp.ft_updates"] = static_cast<double>(r.solver.ft_updates);
  l["lp.dual_pivots"] = static_cast<double>(r.solver.dual_pivots);
  l["lp.warm_solves"] = static_cast<double>(r.solver.warm_solves);
  if (baseline != nullptr) l["execute.s"] += baseline->seconds();
  l["execute.events"] = static_cast<double>(r.exec_events);
  l["controller.self_s"] = controller_self;
  l["controller.rebalances"] = static_cast<double>(r.rebalances);
  return l;
}

class PipelineWorkload final : public Workload {
 public:
  PipelineWorkload(const Config& config, bool adaptive)
      : config_(config), adaptive_(adaptive) {}

  void setup() override {
    const auto& slots = adaptive_ ? kAdaptiveSlots : kMixSlots;
    deck_.clear();
    const std::size_t size = config_.toy ? prefix_ops() : kDeckSize;
    for (std::size_t i = 0; i < size; ++i)
      deck_.push_back(draw_spec(slots[i % slots.size()], config_.seed, i,
                                adaptive_, config_.toy));
    // Warm up on a static, noise-free scenario of fixed size (cesm layout2
    // on 128 nodes / fmm uniform with 12 tasks on 72): the seed draws its
    // geometry but not its size, noise or controller decisions, so setup_s
    // does not inherit the spread of the deck.
    const Slot warm_slot = adaptive_ ? Slot{"fmm", "uniform", 12}
                                     : Slot{"cesm", "layout2", 0};
    ScenarioSpec warm =
        draw_spec(warm_slot, config_.seed, size, false, config_.toy);
    if (warm.tasks > 0) {
      warm.tasks = config_.toy ? 6 : warm_slot.tasks;
      warm.nodes = 6 * warm.tasks;
    } else {
      warm.nodes = 128;
    }
    warm.bench_noise_cv = warm.noise_cv = warm.straggler_cv = 0.0;
    (void)run_spec(warm, size, nullptr);
  }

  OpOutcome run_op(std::size_t i, Tracer* tracer) override {
    return run_spec(deck_[i % deck_.size()], i, tracer);
  }

  std::size_t prefix_ops() const override {
    if (config_.toy) return 4;
    return adaptive_ ? 2 * kAdaptiveSlots.size() : 2 * kMixSlots.size();
  }

  std::string describe() const override {
    return adaptive_
               ? "registry.make -> Pipeline::run (adaptive, threads=2, "
                 "straggler cv 0.2-0.5, fail-stop on 2 of 8 slots) -> "
                 "baseline -> checks; fmo/fmm/amrex, 7-17 tasks"
               : "registry.make -> Pipeline::run (static, threads=2, MINLP) "
                 "-> baseline -> checks; fmo/cesm/fmm/amrex, 11-29 tasks";
  }

 private:
  /// One op on `spec`; `i` is the op id its spans carry.
  OpOutcome run_spec(const ScenarioSpec& spec, std::size_t i, Tracer* tracer) {
    hslb::PipelineOptions opt;
    opt.threads = 2;
    opt.rebalance = spec.rebalance;

    OpOutcome out;
    hslb::PipelineRun run;
    double hslb_s = 0.0, dlb_s = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    {
      ScopedSpan op(tracer, "op", i, 0);
      std::shared_ptr<hslb::Application> app;
      {
        ScopedSpan s(tracer, "registry.make", i, op.id());
        app = hslb::SubstrateRegistry::instance().make(spec);
      }
      {
        ScopedSpan s(tracer, "pipeline.run", i, op.id());
        if (tracer != nullptr) {
          TracedApplication traced(*app, *tracer, i, s.id());
          run = hslb::Pipeline(opt).run(traced);
        } else {
          run = hslb::Pipeline(opt).run(*app);
        }
        s.arg("probes", static_cast<double>(run.report.probes));
        s.arg("minlp.nodes", static_cast<double>(run.report.solver.nodes));
        s.arg("execute.events", static_cast<double>(run.report.exec_events));
        s.arg("rebalances", static_cast<double>(run.report.rebalances));
      }
      ScopedSpan s(tracer, "baseline", i, op.id());
      if (auto* b = dynamic_cast<hslb::BaselineReporter*>(app.get())) {
        hslb_s = b->hslb_total_seconds();
        dlb_s = b->dlb_total_seconds();
      }
      s.arg("hslb_s", hslb_s);
      s.arg("dlb_s", dlb_s);
    }
    out.latency_s = seconds_since(t0);

    if (hslb_s > 0.0 && dlb_s > 0.0 && std::isfinite(dlb_s))
      out.hslb_over_dlb = hslb_s / dlb_s;
    hslb::Allocation alloc = run.solution.allocation;
    if (config_.plant == "over-budget" && !alloc.tasks.empty())
      alloc.tasks.front().nodes += spec.nodes;
    const auto& r = run.report;
    if (!r.exec_completed) {
      out.failure = "run did not complete: " + spec.str();
    } else if (!adaptive_ && peak_nodes(spec, alloc) > spec.nodes) {
      out.failure = "allocation exceeds the node budget: " + spec.str();
    } else if (!adaptive_ && r.solver.status != "optimal") {
      out.failure = "B&B status '" + r.solver.status + "': " + spec.str();
    }
    if (tracer != nullptr)
      out.layers = pipeline_layers(tracer->spans_of(i), r, adaptive_);
    return out;
  }

  Config config_;
  bool adaptive_;
  std::vector<ScenarioSpec> deck_;
};

}  // namespace

std::unique_ptr<Workload> make_pipeline_workload(const Config& config,
                                                 bool adaptive) {
  return std::make_unique<PipelineWorkload>(config, adaptive);
}

}  // namespace perfbench

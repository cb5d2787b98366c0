// lp_scale: cold lp::solve of seeded min-max selector LPs (the selector_lp
// family of bench/minlp_warmstart.cpp): `tasks` x `options` assignment
// variables, one SOS row and one linking row z >= sum(cost * x) per task.
// The models are built during set-up; one op is one cold solve.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "lp/simplex.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

/// Deck of (tasks, options), cycled by the op stream: a tail of small
/// (250-600 tasks) and large (1600-2500 tasks) models around a cluster of
/// six 1000 x 4 models, so the median op always lands inside the cluster
/// however many cycles a run completes. Small and large entries alternate
/// so that a partial cycle stays balanced. The seed jitters every size by
/// up to 2% and draws every cost.
struct Rung {
  std::size_t tasks;
  std::size_t options;
};
const std::vector<Rung> kRungs = {
    {250, 6},  {1600, 5}, {1000, 4}, {1000, 4}, {400, 5},  {2000, 3},
    {1000, 4}, {1000, 4}, {600, 3},  {2500, 4}, {1000, 4}, {1000, 4},
    {2500, 3},
};

struct Instance {
  std::string label;
  hslb::lp::Model model;
  /// max over tasks of the task's cheapest option: the optimum, by hand.
  double expected_objective = 0.0;
};

Instance build_instance(const Rung& rung, std::uint64_t seed, std::size_t i,
                        bool toy) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  hslb::Rng rng(hslb::derive_seed(seed, 0x1b0000u + i));
  const std::size_t base = toy ? rung.tasks / 20 : rung.tasks;
  const auto jitter = static_cast<std::int64_t>(base / 50);
  const std::size_t tasks =
      base + static_cast<std::size_t>(rng.uniform_int(0, jitter));
  Instance inst;
  inst.label = std::to_string(tasks) + "x" + std::to_string(rung.options);
  auto& m = inst.model;
  const auto z = m.add_variable(0.0, kInf, 1.0);
  for (std::size_t t = 0; t < tasks; ++t) {
    std::vector<hslb::lp::Coeff> sos, link;
    link.push_back({z, -1.0});
    double cheapest = kInf;
    for (std::size_t k = 0; k < rung.options; ++k) {
      const auto x = m.add_variable(0.0, 1.0, 0.0);
      const double cost = rng.uniform(1.0, 100.0);
      cheapest = std::min(cheapest, cost);
      sos.push_back({x, 1.0});
      link.push_back({x, cost});
    }
    m.add_constraint(std::move(sos), 1.0, 1.0);
    m.add_constraint(std::move(link), -kInf, 0.0);
    inst.expected_objective = std::max(inst.expected_objective, cheapest);
  }
  return inst;
}

/// Largest bound violation of x against the model's rows and columns,
/// recomputed from the rows (not taken from the solver).
double primal_residual(const hslb::lp::Model& m, const std::vector<double>& x) {
  double worst = 0.0;
  for (std::size_t c = 0; c < m.num_cols(); ++c) {
    worst = std::max({worst, m.col_lower(c) - x[c], x[c] - m.col_upper(c)});
  }
  for (std::size_t r = 0; r < m.num_rows(); ++r) {
    double activity = 0.0;
    for (const auto& [col, value] : m.row(r)) activity += value * x[col];
    worst = std::max({worst, m.row_lower(r) - activity,
                      activity - m.row_upper(r)});
  }
  return worst;
}

class LpWorkload final : public Workload {
 public:
  explicit LpWorkload(const Config& config) : config_(config) {}

  void setup() override {
    deck_.clear();
    for (std::size_t i = 0; i < prefix_ops(); ++i)
      deck_.push_back(build_instance(kRungs[i % kRungs.size()], config_.seed,
                                     i, config_.toy));
    // Warm up on the smallest model, which solves in about the time the
    // deck takes to build, so the seed-driven pivot count of one large
    // solve does not dominate setup_s.
    (void)run_op(0, nullptr);
  }

  OpOutcome run_op(std::size_t i, Tracer* tracer) override {
    const Instance& inst = deck_[i % deck_.size()];
    hslb::lp::Options opt;
    opt.max_iterations = 4 * inst.model.num_cols() + 100000;

    OpOutcome out;
    hslb::lp::Solution sol;
    const auto t0 = std::chrono::steady_clock::now();
    {
      ScopedSpan s(tracer, "lp.solve", i, 0);
      sol = hslb::lp::solve(inst.model, opt);
      s.arg("rows", static_cast<double>(inst.model.num_rows()));
      s.arg("pivots", static_cast<double>(sol.stats.pivots));
    }
    out.latency_s = seconds_since(t0);

    double objective = sol.objective;
    if (config_.plant == "lp-objective") objective *= 1.0 + 1e-6;
    const double want = inst.expected_objective;
    if (sol.status != hslb::lp::Status::Optimal) {
      out.failure = inst.label + ": status " + hslb::lp::to_string(sol.status);
    } else if (std::fabs(objective - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
      out.failure = inst.label + ": objective differs from the closed form";
    } else if (primal_residual(inst.model, sol.x) > 1e-7) {
      out.failure = inst.label + ": primal residual above 1e-7";
    }

    if (tracer != nullptr) {
      Layers& l = out.layers;
      for (const auto& s : tracer->spans_of(i)) l["lp.solve_s"] += s.seconds();
      const auto& st = sol.stats;
      l["lp.pivots"] = static_cast<double>(st.pivots);
      l["lp.refactorizations"] = static_cast<double>(st.refactorizations);
      l["lp.ft_updates"] = static_cast<double>(st.ft_updates);
      l["lp.dual_pivots"] = static_cast<double>(st.dual_pivots);
      l["lp.warm_solves"] = sol.warm_started ? 1.0 : 0.0;
      l["lp.kernel_flops"] = static_cast<double>(st.kernel_flops);
    }
    return out;
  }

  std::size_t prefix_ops() const override { return kRungs.size(); }

  std::string describe() const override {
    return "one cold lp::solve of a min-max selector LP (250-2550 tasks x "
           "3-6 options, 500-5100 rows) -> closed-form and residual checks";
  }

 private:
  Config config_;
  std::vector<Instance> deck_;
};

}  // namespace

std::unique_ptr<Workload> make_lp_workload(const Config& config) {
  return std::make_unique<LpWorkload>(config);
}

}  // namespace perfbench

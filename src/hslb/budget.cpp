#include "hslb/budget.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/contracts.hpp"

namespace hslb {

namespace {

/// A memory knapsack row can force more nodes than the caller's
/// min_nodes: the effective floor every solver and the MINLP builder use.
/// Models without one report min_feasible_nodes() == 1, so the floor
/// degenerates to min_nodes there.
long long effective_min(const BudgetTask& t) {
  return std::max(t.min_nodes, t.model.min_feasible_nodes());
}

void validate(std::span<const BudgetTask> tasks, long long budget) {
  HSLB_EXPECTS(!tasks.empty());
  long long min_total = 0;
  for (const auto& t : tasks) {
    HSLB_EXPECTS(t.min_nodes >= 1);
    HSLB_EXPECTS(t.max_nodes >= effective_min(t));
    min_total += effective_min(t);
  }
  HSLB_EXPECTS(min_total <= budget);
}

double eval(const BudgetTask& t, long long n) {
  return t.model.eval(static_cast<double>(n));
}

Allocation finish(std::span<const BudgetTask> tasks,
                  const std::vector<long long>& nodes, Objective objective) {
  Allocation out;
  for (std::size_t f = 0; f < tasks.size(); ++f) {
    out.tasks.push_back(
        TaskAllocation{tasks[f].name, nodes[f], eval(tasks[f], nodes[f])});
  }
  out.predicted_total = evaluate_objective(tasks, nodes, objective);
  return out;
}

}  // namespace

double evaluate_objective(std::span<const BudgetTask> tasks,
                          std::span<const long long> nodes,
                          Objective objective) {
  HSLB_EXPECTS(tasks.size() == nodes.size());
  HSLB_EXPECTS(!tasks.empty());
  std::vector<double> times(tasks.size());
  for (std::size_t f = 0; f < tasks.size(); ++f)
    times[f] = eval(tasks[f], nodes[f]);
  return fold_objective(objective, times);
}

Allocation solve_min_max(std::span<const BudgetTask> tasks, long long budget) {
  validate(tasks, budget);

  // Cap each task at its own argmin: past it more nodes only hurt.
  std::vector<long long> cap(tasks.size());
  std::vector<long long> nodes(tasks.size());
  long long used = 0;
  for (std::size_t f = 0; f < tasks.size(); ++f) {
    const long long lo = effective_min(tasks[f]);
    cap[f] = tasks[f].model.argmin_int(lo, tasks[f].max_nodes).first;
    nodes[f] = lo;
    used += nodes[f];
  }

  // Greedy: always feed the currently slowest task; stop when it cannot
  // improve (then neither can the makespan) or the budget runs out.
  using Entry = std::pair<double, std::size_t>;  // (-time ordering via less)
  std::priority_queue<Entry> heap;
  for (std::size_t f = 0; f < tasks.size(); ++f)
    heap.push({eval(tasks[f], nodes[f]), f});

  while (used < budget) {
    const auto [time, f] = heap.top();
    if (nodes[f] >= cap[f]) break;  // slowest task saturated: done
    heap.pop();
    ++nodes[f];
    ++used;
    heap.push({eval(tasks[f], nodes[f]), f});
  }
  return finish(tasks, nodes, Objective::MinMax);
}

Allocation solve_min_sum(std::span<const BudgetTask> tasks, long long budget) {
  validate(tasks, budget);
  std::vector<long long> nodes(tasks.size());
  long long used = 0;
  for (std::size_t f = 0; f < tasks.size(); ++f) {
    nodes[f] = effective_min(tasks[f]);
    used += nodes[f];
  }
  // Marginal gains are non-increasing for convex models, so a gain heap
  // yields the exact optimum.
  using Entry = std::pair<double, std::size_t>;  // (gain, task)
  std::priority_queue<Entry> heap;
  auto gain = [&](std::size_t f) {
    if (nodes[f] >= tasks[f].max_nodes) return -1.0;
    return eval(tasks[f], nodes[f]) - eval(tasks[f], nodes[f] + 1);
  };
  for (std::size_t f = 0; f < tasks.size(); ++f) heap.push({gain(f), f});
  while (used < budget && !heap.empty()) {
    const auto [g, f] = heap.top();
    heap.pop();
    if (g <= 0.0) break;  // no further improvement anywhere
    // The stored gain may be stale; re-validate before applying.
    const double fresh = gain(f);
    if (fresh != g) {
      if (fresh > 0.0) heap.push({fresh, f});
      continue;
    }
    ++nodes[f];
    ++used;
    heap.push({gain(f), f});
  }
  return finish(tasks, nodes, Objective::MinSum);
}

Allocation solve_max_min(std::span<const BudgetTask> tasks, long long budget) {
  validate(tasks, budget);
  // max-min is an equalization objective: with a "<= budget" constraint it
  // degenerates (fewest nodes maximize every time), so by convention it
  // spends the whole budget (all N nodes, as the papers' runs do). Start
  // from the min-max solution, pour the remaining nodes greedily, then
  // hill-climb with single-node moves between task pairs.
  Allocation start = solve_min_max(tasks, budget);
  std::vector<long long> nodes(tasks.size());
  long long used = 0;
  for (std::size_t f = 0; f < tasks.size(); ++f) {
    nodes[f] = start.tasks[f].nodes;
    used += nodes[f];
  }
  while (used < budget) {
    // Give the next node wherever it hurts the minimum time least.
    std::size_t best_f = tasks.size();
    double best_obj = -1e300;
    for (std::size_t f = 0; f < tasks.size(); ++f) {
      if (nodes[f] >= tasks[f].max_nodes) continue;
      ++nodes[f];
      const double obj = evaluate_objective(tasks, nodes, Objective::MaxMin);
      --nodes[f];
      if (obj > best_obj) {
        best_obj = obj;
        best_f = f;
      }
    }
    if (best_f == tasks.size()) break;  // every task at its cap
    ++nodes[best_f];
    ++used;
  }

  double best = evaluate_objective(tasks, nodes, Objective::MaxMin);
  const std::size_t max_rounds = 10000;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    double round_best = best;
    std::size_t best_from = tasks.size(), best_to = tasks.size();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (nodes[i] <= effective_min(tasks[i])) continue;
      for (std::size_t j = 0; j < tasks.size(); ++j) {
        if (i == j || nodes[j] >= tasks[j].max_nodes) continue;
        --nodes[i];
        ++nodes[j];
        const double v = evaluate_objective(tasks, nodes, Objective::MaxMin);
        if (v > round_best + 1e-12) {
          round_best = v;
          best_from = i;
          best_to = j;
        }
        ++nodes[i];
        --nodes[j];
      }
    }
    if (best_from == tasks.size()) break;  // local optimum
    --nodes[best_from];
    ++nodes[best_to];
    best = round_best;
  }
  return finish(tasks, nodes, Objective::MaxMin);
}

Allocation solve_budget(std::span<const BudgetTask> tasks, long long budget,
                        Objective objective) {
  switch (objective) {
    case Objective::MinMax: return solve_min_max(tasks, budget);
    case Objective::MinSum: return solve_min_sum(tasks, budget);
    case Objective::MaxMin: return solve_max_min(tasks, budget);
  }
  HSLB_ASSERT(!"unreachable");
  return {};
}

minlp::Model build_budget_minlp(std::span<const BudgetTask> tasks,
                                long long budget, Objective objective) {
  HSLB_EXPECTS(objective == Objective::MinMax || objective == Objective::MinSum);
  validate(tasks, budget);
  minlp::Model m;

  // n_f variables first (task order), epigraph variable(s) after, then any
  // auxiliary split variables — so compute-only instances lay out exactly
  // as the power-law-only builder did (warm starts, presolve, and the cut
  // pool see an unchanged model).
  std::vector<std::size_t> n_vars;
  double worst_total = 0.0;
  for (const auto& t : tasks) {
    n_vars.push_back(m.add_integer(static_cast<double>(effective_min(t)),
                                   static_cast<double>(t.max_nodes),
                                   "n_" + t.name));
    worst_total += t.model.eval(static_cast<double>(effective_min(t)));
  }

  // Convex nonlinear epigraph for the non-affine part of a cost model:
  //   nonlinear(n) - epi <= 0
  // where `epi` is either the task time variable itself (no affine terms —
  // the classic case) or an auxiliary split variable s.
  auto add_epigraph = [&m](std::size_t n_var, const perf::CostModel& cm,
                           std::size_t epi_var, const std::string& name) {
    minlp::NonlinearConstraint c;
    c.name = name;
    c.formula =
        cm.expr_nonlinear(m.var_name(n_var)) + " - " + m.var_name(epi_var) +
        " <= 0";
    c.vars = {n_var, epi_var};
    c.value = [n_var, epi_var, cm](std::span<const double> x) {
      return cm.eval_nonlinear(x[n_var]) - x[epi_var];
    };
    c.gradient = [n_var, epi_var, cm](std::span<const double> x) {
      return std::vector<minlp::GradEntry>{{n_var, cm.deriv_nonlinear(x[n_var])},
                                           {epi_var, -1.0}};
    };
    m.add_nonlinear(std::move(c));
  };

  // Per-task constraint assembly: the affine part (the comm charge) goes
  // in as an exact linear row, the rest as the nonlinear epigraph; a
  // memory charge adds its knapsack row.
  auto add_task_rows = [&](std::size_t f, std::size_t t_var) {
    const auto& task = tasks[f];
    const std::size_t n_var = n_vars[f];
    double slope = 0.0, intercept = 0.0;
    if (!task.model.linear_part(slope, intercept)) {
      add_epigraph(n_var, task.model, t_var, "T_" + task.name);
    } else {
      // Split: nonlinear(n) <= s and s + slope*n <= t - intercept. The
      // linearized communication cost rides in the LP relaxation exactly,
      // so outer-approximation cuts only chase the genuinely curved part.
      const auto s_var =
          m.add_continuous(0.0, worst_total, "s_" + task.name);
      add_epigraph(n_var, task.model, s_var, "S_" + task.name);
      m.add_linear({{s_var, 1.0}, {n_var, slope}, {t_var, -1.0}},
                   -minlp::kInf, -intercept, "lin_" + task.name);
    }
    if (const auto& mem = task.model.memory()) {
      // capacity * n >= working set: the memory knapsack.
      m.add_linear({{n_var, mem->capacity_gb}}, mem->demand_gb, minlp::kInf,
                   "mem_" + task.name);
    }
  };

  if (objective == Objective::MinMax) {
    const auto t_var = m.add_continuous(0.0, worst_total, "T");
    m.set_objective(t_var, 1.0);
    for (std::size_t f = 0; f < tasks.size(); ++f) add_task_rows(f, t_var);
  } else {
    for (std::size_t f = 0; f < tasks.size(); ++f) {
      const auto t_var = m.add_continuous(0.0, worst_total, "t_" + tasks[f].name);
      m.set_objective(t_var, 1.0);
      add_task_rows(f, t_var);
    }
  }

  std::vector<lp::Coeff> coeffs;
  for (auto v : n_vars) coeffs.push_back({v, 1.0});
  m.add_linear(std::move(coeffs), 0.0, static_cast<double>(budget), "budget");
  return m;
}

std::vector<double> minlp_warm_start(std::span<const BudgetTask> tasks,
                                     std::span<const long long> nodes,
                                     Objective objective) {
  HSLB_EXPECTS(objective == Objective::MinMax || objective == Objective::MinSum);
  HSLB_EXPECTS(tasks.size() == nodes.size());
  std::vector<double> x;
  for (long long n : nodes) x.push_back(static_cast<double>(n));
  // Mirror build_budget_minlp's variable order: epigraph variable(s) after
  // the node counts, split variables appended as each task's rows are
  // assembled.
  auto push_split = [&x](const BudgetTask& t, long long n) {
    double slope = 0.0, intercept = 0.0;
    if (t.model.linear_part(slope, intercept))
      x.push_back(t.model.eval_nonlinear(static_cast<double>(n)));
  };
  if (objective == Objective::MinMax) {
    double worst = 0.0;
    for (std::size_t f = 0; f < tasks.size(); ++f)
      worst = std::max(worst, eval(tasks[f], nodes[f]));
    x.push_back(worst);
    for (std::size_t f = 0; f < tasks.size(); ++f)
      push_split(tasks[f], nodes[f]);
  } else {
    for (std::size_t f = 0; f < tasks.size(); ++f) {
      x.push_back(eval(tasks[f], nodes[f]));
      push_split(tasks[f], nodes[f]);
    }
  }
  return x;
}

Allocation allocation_from_minlp(std::span<const BudgetTask> tasks,
                                 std::span<const double> x,
                                 Objective objective) {
  HSLB_EXPECTS(x.size() >= tasks.size());
  std::vector<long long> nodes(tasks.size());
  for (std::size_t f = 0; f < tasks.size(); ++f)
    nodes[f] = std::llround(x[f]);
  Allocation out;
  for (std::size_t f = 0; f < tasks.size(); ++f)
    out.tasks.push_back(TaskAllocation{tasks[f].name, nodes[f],
                                       eval(tasks[f], nodes[f])});
  out.predicted_total = evaluate_objective(tasks, nodes, objective);
  return out;
}

std::vector<perf::CostModel> task_models(std::span<const BudgetTask> tasks) {
  std::vector<perf::CostModel> out;
  out.reserve(tasks.size());
  for (const auto& t : tasks) out.push_back(t.model);
  return out;
}

void seed_bnb_options(minlp::BnbOptions& bnb,
                      std::span<const BudgetTask> tasks, Objective objective,
                      const SolveSeed& seed) {
  if (seed.nodes_by_task.size() == tasks.size()) {
    std::vector<long long> warm = seed.nodes_by_task;
    for (std::size_t f = 0; f < tasks.size(); ++f)
      warm[f] = std::clamp(warm[f], tasks[f].min_nodes, tasks[f].max_nodes);
    bnb.seed_incumbent = minlp_warm_start(tasks, warm, objective);
    bnb.seed_points.push_back(bnb.seed_incumbent);
  }
  if (!seed.x.empty()) bnb.seed_points.push_back(seed.x);
  if (!seed.cuts.empty() &&
      std::ranges::equal(seed.models, tasks, {}, {}, &BudgetTask::model))
    bnb.seed_cuts = seed.cuts;
}

BudgetSolver::BudgetSolver(Objective objective, bool minlp,
                           minlp::BnbOptions bnb, double waves, double sync)
    : objective_(objective),
      minlp_(minlp),
      bnb_(std::move(bnb)),
      waves_(waves),
      sync_(sync) {}

SolveOutcome BudgetSolver::search(std::span<const BudgetTask> tasks,
                                  long long budget, const SolveSeed& seed) {
  SolveOutcome out;
  if (!minlp_) {
    out.allocation = solve_budget(tasks, budget, objective_);
    // A seeded greedy solve is a closed-loop re-solve; the seed itself
    // only warms branch-and-bound.
    out.solver.status = to_string(objective_) + " exact greedy" +
                        (seed.nodes_by_task.empty() ? "" : " (warm)");
    return out;
  }
  const auto model = build_budget_minlp(tasks, budget, objective_);
  minlp::BnbOptions options = bnb_;
  seed_bnb_options(options, tasks, objective_, seed);
  const auto bnb = minlp::solve(model, options);
  out.allocation = allocation_from_minlp(tasks, bnb.x, objective_);
  out.solver = SolverStats::from_bnb(bnb, bnb_.solver_threads);
  seed_accepted_ = bnb.seed_accepted;
  learned_ = {{}, bnb.x, bnb.pool_cuts, task_models(tasks)};
  return out;
}

SolveOutcome BudgetSolver::solve(std::span<const BudgetTask> tasks,
                                 long long budget, const SolveSeed& seed) {
  SolveOutcome out = search(tasks, budget, seed);
  double slowest = 0.0;
  for (const auto& t : out.allocation.tasks)
    slowest = std::max(slowest, t.predicted_seconds);
  out.predicted_total = waves_ * (slowest + sync_);
  // Term-wise predicted task-seconds over all waves (allocation entries
  // are in task order for both solver paths).
  for (std::size_t f = 0; f < tasks.size(); ++f) {
    const double n = static_cast<double>(out.allocation.tasks[f].nodes);
    for (const auto& [term, seconds] : tasks[f].model.term_seconds(n)) {
      auto it = std::find_if(
          out.term_predictions.begin(), out.term_predictions.end(),
          [&](const TermReport& r) { return r.term == term; });
      if (it == out.term_predictions.end()) {
        out.term_predictions.push_back({term, 0.0, 0.0});
        it = std::prev(out.term_predictions.end());
      }
      it->predicted_seconds += waves_ * seconds;
    }
  }
  return out;
}

ResolveOutcome BudgetSolver::resolve(std::span<const BudgetTask> tasks,
                                     long long budget,
                                     const Allocation& incumbent) {
  SolveSeed seed = learned_;
  for (const auto& t : tasks)
    seed.nodes_by_task.push_back(incumbent.find(t.name).nodes);
  ResolveOutcome out;
  out.solution = search(tasks, budget, seed);
  std::vector<long long> nodes;
  nodes.reserve(out.solution.allocation.tasks.size());
  for (const auto& t : out.solution.allocation.tasks) nodes.push_back(t.nodes);
  out.solution.predicted_total =
      evaluate_objective(tasks, nodes, objective_) + sync_;
  out.incumbent_predicted =
      evaluate_objective(tasks, seed.nodes_by_task, objective_) + sync_;
  return out;
}

}  // namespace hslb

#include "minlp/kelley.hpp"

#include <cmath>
#include <optional>

#include "common/contracts.hpp"
#include "common/log.hpp"
#include "lp/simplex.hpp"

namespace hslb::minlp {

namespace {

lp::Model build_variables_and_linear_rows(const Model& model,
                                          const BoundOverrides& bounds) {
  lp::Model out;
  for (std::size_t v = 0; v < model.num_vars(); ++v) {
    const double lb = bounds.lb(model, v);
    const double ub = bounds.ub(model, v);
    // Branching can produce an empty box; encode it as an infeasible pair of
    // rows rather than violating the lp::Model lb<=ub contract.
    if (lb > ub) {
      const std::size_t col =
          out.add_variable(ub, lb, model.objective_coeff(v));
      out.add_constraint({{col, 1.0}}, lb, lp::kInf);
      out.add_constraint({{col, 1.0}}, -lp::kInf, ub);
      continue;
    }
    out.add_variable(lb, ub, model.objective_coeff(v));
  }
  for (std::size_t r = 0; r < model.num_linear(); ++r) {
    out.add_constraint(model.linear_coeffs(r), model.linear_lower(r),
                       model.linear_upper(r));
  }
  return out;
}

}  // namespace

lp::Model build_lp_relaxation(const Model& model, const CutLedger& ledger,
                              const BoundOverrides& bounds) {
  lp::Model out = build_variables_and_linear_rows(model, bounds);
  for (std::size_t i = 0; i < ledger.num_cuts(); ++i) {
    const Cut& c = ledger.cut(i);
    out.add_constraint(c.coeffs, -lp::kInf, c.rhs);
  }
  return out;
}

lp::Model build_lp_relaxation(const Model& model, const CutPool& pool,
                              const BoundOverrides& bounds) {
  lp::Model out = build_variables_and_linear_rows(model, bounds);
  for (const std::size_t id : pool.active_ids()) {
    const Cut& c = pool.cuts()[id];
    out.add_constraint(c.coeffs, -lp::kInf, c.rhs);
  }
  return out;
}

KelleyResult solve_relaxation(const Model& model, CutLedger& ledger,
                              const BoundOverrides& bounds,
                              const KelleyOptions& options,
                              lp::Solver& engine) {
  KelleyResult result;
  result.status = KelleyResult::Status::RoundLimit;

  // Build the relaxation once; later rounds only append their new cut rows
  // and warm-start from the previous round's basis, so each round costs a
  // handful of dual/primal pivots instead of a full two-phase solve.
  lp::Model relax = build_lp_relaxation(model, ledger, bounds);
  std::size_t cuts_in_relax = ledger.num_cuts();
  lp::Basis basis;

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    lp::Options lp_opt = options.lp;
    if (!basis.empty()) lp_opt.warm_start = &basis;
    const lp::Solution sol = engine.solve(relax, lp_opt);
    ++result.lp_solves;
    result.lp_pivots += sol.iterations;
    result.lp_stats.merge(sol.stats);

    if (sol.status == lp::Status::Infeasible) {
      result.status = KelleyResult::Status::Infeasible;
      return result;
    }
    // The model builders give every variable finite bounds (asserted by the
    // B&B driver), so the relaxation cannot be unbounded.
    HSLB_ASSERT(sol.status == lp::Status::Optimal);
    basis = sol.basis;

    const double scale = 1.0 + std::fabs(sol.objective);
    const double worst = model.max_nonlinear_violation(sol.x);
    if (worst <= options.feas_tol * scale) {
      result.status = KelleyResult::Status::Optimal;
      result.objective = sol.objective;
      result.x = sol.x;
      result.basis = std::move(basis);
      return result;
    }

    const std::size_t added =
        ledger.add_violated(model, sol.x, options.feas_tol * scale);
    result.cuts_added += added;
    if (added == 0) {
      // Numerically stalled: violation persists but the linearization no
      // longer separates. Accept the point as the relaxation solution; the
      // residual violation is below what the cut arithmetic can resolve.
      log::debug() << "kelley: stalled with violation " << worst;
      result.status = KelleyResult::Status::Optimal;
      result.objective = sol.objective;
      result.x = sol.x;
      result.basis = std::move(basis);
      return result;
    }
    for (std::size_t c = cuts_in_relax; c < ledger.num_cuts(); ++c) {
      relax.add_constraint(ledger.cut(c).coeffs, -lp::kInf, ledger.cut(c).rhs);
    }
    cuts_in_relax = ledger.num_cuts();
  }
  return result;
}

KelleyResult solve_relaxation(const Model& model, CutPool& pool,
                              const BoundOverrides& bounds,
                              const KelleyOptions& options,
                              lp::Solver* engine) {
  const std::vector<std::size_t> active = pool.active_ids();
  CutLedger ledger(pool, active);
  std::optional<lp::Solver> temporary;
  if (engine == nullptr) engine = &temporary.emplace();
  KelleyResult result =
      solve_relaxation(model, ledger, bounds, options, *engine);
  // Serial caller: fold the ledger straight back into the pool.
  for (const std::size_t id : ledger.reactivated()) pool.reactivate(id);
  for (Cut& c : ledger.take_appended()) pool.insert(std::move(c));
  return result;
}

KelleyResult solve_relaxation(const Model& model, CutPool& pool,
                              const KelleyOptions& options) {
  return solve_relaxation(model, pool, BoundOverrides(model.num_vars()), options);
}

}  // namespace hslb::minlp

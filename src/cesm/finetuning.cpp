#include "cesm/finetuning.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace hslb::cesm {

MinorComponents synthetic_minor_components(
    const std::array<perf::Model, 4>& majors, double cpl_fraction,
    double rof_fraction) {
  HSLB_EXPECTS(cpl_fraction > 0.0 && cpl_fraction < 1.0);
  HSLB_EXPECTS(rof_fraction > 0.0 && rof_fraction < 1.0);
  MinorComponents minor;
  minor.cpl = majors[index(Component::Atm)];
  minor.cpl.a *= cpl_fraction;
  minor.cpl.b *= cpl_fraction;
  minor.cpl.d *= cpl_fraction;
  minor.rof = majors[index(Component::Lnd)];
  minor.rof.a *= rof_fraction;
  minor.rof.b *= rof_fraction;
  minor.rof.d *= rof_fraction;
  return minor;
}

minlp::Model build_finetuned_minlp(const LayoutProblem& p,
                                   const MinorComponents& minor,
                                   std::array<std::size_t, 4>* n_vars_out) {
  HSLB_EXPECTS(p.layout == Layout::Hybrid);
  HSLB_EXPECTS(minor.cpl.is_convex() && minor.rof.is_convex());

  // Start from the plain layout-1 model, then append the minor terms.
  // We rebuild rather than mutate so variable names/indices stay stable.
  std::array<std::size_t, 4> n_vars{};
  LayoutProblem host = p;
  minlp::Model m = build_layout_minlp(host, &n_vars);

  // Find the layout's epigraph variables by name (t_lnd, t_atm, T_icelnd, T).
  auto var_by_name = [&m](const std::string& name) {
    for (std::size_t v = 0; v < m.num_vars(); ++v)
      if (m.var_name(v) == name) return v;
    HSLB_EXPECTS(!"layout variable not found");
    return std::size_t{0};
  };
  const auto t_lnd = var_by_name("t_lnd");
  const auto t_ice = var_by_name("t_ice");
  const auto t_atm = var_by_name("t_atm");
  const auto t_icelnd = var_by_name("T_icelnd");
  const auto T = var_by_name("T");
  const auto n_lnd = n_vars[index(Component::Lnd)];
  const auto n_atm = n_vars[index(Component::Atm)];

  // Minor epigraph variables on the host components' node counts.
  const double t_max = m.upper(T);
  const auto t_cpl = m.add_continuous(0.0, t_max, "t_cpl");
  const auto t_rof = m.add_continuous(0.0, t_max, "t_rof");
  auto add_minor = [&m](const perf::Model& pm, std::size_t n_var,
                        std::size_t t_var, const std::string& name) {
    minlp::NonlinearConstraint con;
    con.name = "T_" + name;
    con.formula = pm.expr(m.var_name(n_var)) + " - " + m.var_name(t_var) +
                  " <= 0";
    con.vars = {n_var, t_var};
    con.value = [n_var, t_var, pm](std::span<const double> x) {
      return pm.eval(x[n_var]) - x[t_var];
    };
    con.gradient = [n_var, t_var, pm](std::span<const double> x) {
      return std::vector<minlp::GradEntry>{{n_var, pm.deriv_n(x[n_var])},
                                           {t_var, -1.0}};
    };
    m.add_nonlinear(std::move(con));
  };
  add_minor(minor.cpl, n_atm, t_cpl, "cpl");
  add_minor(minor.rof, n_lnd, t_rof, "rof");

  // Strengthened sequencing rows. The base rows (T_icelnd >= t_lnd,
  // T >= T_icelnd + t_atm) remain valid but slack; the rows below dominate.
  const double inf = lp::kInf;
  m.add_linear({{t_icelnd, 1.0}, {t_lnd, -1.0}, {t_rof, -1.0}}, 0.0, inf,
               "icelnd_ge_lnd_rof");
  m.add_linear({{t_icelnd, 1.0}, {t_ice, -1.0}}, 0.0, inf,
               "icelnd_ge_ice_ft");
  m.add_linear({{T, 1.0}, {t_icelnd, -1.0}, {t_atm, -1.0}, {t_cpl, -1.0}},
               0.0, inf, "T_ge_icelnd_atm_cpl");

  if (n_vars_out) *n_vars_out = n_vars;
  return m;
}

FinetunedSolution solve_finetuned(const LayoutProblem& p,
                                  const MinorComponents& minor,
                                  const minlp::BnbOptions& options) {
  std::array<std::size_t, 4> n_vars{};
  const auto model = build_finetuned_minlp(p, minor, &n_vars);
  FinetunedSolution sol;
  sol.stats = minlp::solve(model, options);
  HSLB_EXPECTS(sol.stats.has_solution);
  for (Component c : kComponents) {
    const auto i = index(c);
    sol.nodes[i] = std::llround(sol.stats.x[n_vars[i]]);
    sol.predicted_seconds[i] =
        p.models[i].eval(static_cast<double>(sol.nodes[i]));
  }
  sol.predicted_total = finetuned_total(p, minor, sol.nodes);
  sol.seconds = sol.stats.seconds;
  return sol;
}

double finetuned_total(const LayoutProblem& p, const MinorComponents& minor,
                       const std::array<long long, 4>& nodes) {
  const auto t = [&](Component c) {
    return p.models[index(c)].eval(static_cast<double>(nodes[index(c)]));
  };
  const double lnd_block =
      t(Component::Lnd) +
      minor.rof.eval(static_cast<double>(nodes[index(Component::Lnd)]));
  const double icelnd = std::max(t(Component::Ice), lnd_block);
  const double atm_block =
      t(Component::Atm) +
      minor.cpl.eval(static_cast<double>(nodes[index(Component::Atm)]));
  return std::max(icelnd + atm_block, t(Component::Ocn));
}

}  // namespace hslb::cesm

#include "cesm/advisor.hpp"

#include "common/contracts.hpp"
#include "hslb/gather.hpp"

namespace hslb::cesm {

NodeCountAdvice advise_node_count(Resolution r, Layout layout,
                                  const std::array<perf::Model, 4>& models,
                                  bool ocean_constrained,
                                  const AdvisorOptions& options) {
  HSLB_EXPECTS(options.min_nodes >= 8);
  HSLB_EXPECTS(options.max_nodes >= options.min_nodes);
  HSLB_EXPECTS(options.efficiency_floor > 0.0 && options.efficiency_floor <= 1.0);

  NodeCountAdvice advice;
  const auto counts = geometric_node_counts(options.min_nodes,
                                            options.max_nodes,
                                            options.sweep_points);
  double base_cost = 0.0;  // T_0 * N_0 (node-seconds at the smallest size)
  for (long long n : counts) {
    const auto problem = make_problem(r, layout, n, models, ocean_constrained);
    const auto sol = solve_layout(problem);
    SweepPoint pt;
    pt.nodes = n;
    pt.predicted_seconds = sol.predicted_total;
    if (base_cost == 0.0)
      base_cost = pt.predicted_seconds * static_cast<double>(n);
    pt.efficiency = base_cost /
                    (pt.predicted_seconds * static_cast<double>(n));
    advice.sweep.push_back(pt);
  }

  advice.fastest_nodes = advice.sweep.front().nodes;
  advice.fastest_seconds = advice.sweep.front().predicted_seconds;
  advice.cost_efficient_nodes = advice.sweep.front().nodes;
  advice.cost_efficient_seconds = advice.sweep.front().predicted_seconds;
  for (const auto& pt : advice.sweep) {
    if (pt.predicted_seconds < advice.fastest_seconds) {
      advice.fastest_seconds = pt.predicted_seconds;
      advice.fastest_nodes = pt.nodes;
    }
    if (pt.efficiency >= options.efficiency_floor &&
        pt.nodes > advice.cost_efficient_nodes) {
      advice.cost_efficient_nodes = pt.nodes;
      advice.cost_efficient_seconds = pt.predicted_seconds;
    }
  }
  return advice;
}

Solution predict_component_swap(const LayoutProblem& base, Component which,
                                const perf::Model& replacement) {
  HSLB_EXPECTS(replacement.is_convex());
  LayoutProblem swapped = base;
  swapped.models[index(which)] = replacement;
  return solve_layout(swapped);
}

}  // namespace hslb::cesm

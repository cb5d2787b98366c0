// §IV-C extensions: "Prediction of Optimal Layout and Number of Nodes to a
// Job".
//
// Once the component models are fitted, HSLB can answer planning questions
// without running anything:
//   * how many nodes should this job request? ("it could be a
//     cost-efficient goal where nodes are increased until scaling is
//     reduced to a predefined limit or it could be the shortest time to
//     solution"),
//   * which layout scales best (Figure 4),
//   * what happens when one component is replaced by another
//     ("how replacing one component with another will affect scaling").
#pragma once

#include <vector>

#include "cesm/layouts.hpp"

namespace hslb::cesm {

struct SweepPoint {
  long long nodes = 0;
  double predicted_seconds = 0.0;
  /// Scaling efficiency relative to the smallest sweep point:
  /// (T_0 * N_0) / (T * N). 1 = perfect scaling.
  double efficiency = 1.0;
};

struct NodeCountAdvice {
  /// Largest node count whose relative scaling efficiency stays at or
  /// above the requested floor (the "cost-efficient" answer).
  long long cost_efficient_nodes = 0;
  double cost_efficient_seconds = 0.0;
  /// Node count minimizing predicted time over the sweep (the
  /// "shortest time to solution" answer).
  long long fastest_nodes = 0;
  double fastest_seconds = 0.0;
  std::vector<SweepPoint> sweep;
};

struct AdvisorOptions {
  long long min_nodes = 128;
  long long max_nodes = 40960;        ///< all of Intrepid by default
  std::size_t sweep_points = 8;       ///< geometric sweep resolution
  double efficiency_floor = 0.5;      ///< the "predefined limit" of §IV-C
};

/// Sweeps the node count, solving the layout exactly at each size, and
/// recommends both a cost-efficient and a fastest node count.
NodeCountAdvice advise_node_count(Resolution r, Layout layout,
                                  const std::array<perf::Model, 4>& models,
                                  bool ocean_constrained = true,
                                  const AdvisorOptions& options = {});

/// What-if: re-solve the layout with one component's model replaced (e.g.
/// a faster ocean model, or a component moved to different physics).
/// Returns the new solution at the same node count.
Solution predict_component_swap(const LayoutProblem& base, Component which,
                                const perf::Model& replacement);

}  // namespace hslb::cesm

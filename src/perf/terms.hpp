// The cost model the Solve step optimizes: the fitted power law of the
// paper's Fit step (Table II) plus the two machine charges of the
// communication- and memory-aware model (Lifflander et al.,
// arXiv:2404.16793), each pinned from the machine spec rather than fitted:
//
//   T(n) = a/n + b*n^c + d                       powerlaw (perf::Model)
//        + beta * volume * n                     comm     (optional)
//        + gamma * max(0, demand - capacity*n)   memory   (optional)
//
//   * comm   — per-neighbour halo exchange: `volume` GB must be sent to each
//     of the task's n spanning ranks by its off-node neighbours
//     (sender-side link serialization; see sim::Machine::comm_seconds), at
//     beta = 1/bandwidth seconds per GB. Affine in n, so the MINLP carries
//     it as an exact linear row;
//   * memory — paging on the working-set GB spilled past node memory across
//     the task's span (equals sim::Machine's paging charge exactly), plus
//     the knapsack row capacity * n >= demand the MINLP emits. With
//     gamma = 0 only the row remains.
//
// Both charges are convex in n, so a convex power law keeps the
// branch-and-bound optimality argument (§III-E). A model without either
// charge evaluates exactly as its perf::Model.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perf/model.hpp"

namespace hslb::perf {

/// The memory charge gamma * max(0, demand - capacity * n) and its knapsack
/// row capacity * n >= demand.
struct MemoryRow {
  double capacity_gb = 0.0;  ///< node memory, GB per node
  double demand_gb = 0.0;    ///< the task's working set, GB
  double gamma = 0.0;        ///< paging seconds per spilled GB

  bool operator==(const MemoryRow&) const = default;
};

/// A fitted power law plus the optional pinned machine charges (see the
/// file comment). Implicitly constructible from perf::Model, so a
/// power-law-only BudgetTask reads as before.
class CostModel {
 public:
  CostModel() = default;
  CostModel(const Model& power_law);  // NOLINT(google-explicit-constructor)

  /// Pins the comm charge beta * volume_gb * n (both >= 0).
  void pin_comm(double volume_gb, double beta_s_per_gb);
  /// Pins the memory charge and its knapsack row (capacity > 0; demand and
  /// gamma >= 0; gamma = 0 keeps the row only).
  void pin_memory(double demand_gb, double capacity_gb_per_node,
                  double gamma_s_per_gb);

  /// The memory charge's knapsack row, when one is pinned.
  const std::optional<MemoryRow>& memory() const { return memory_; }

  /// Equal models give the MINLP identical rows and nonlinear constraints,
  /// the condition under which outer-approximation cuts stay valid.
  bool operator==(const CostModel&) const = default;

  /// Total predicted seconds at n nodes (n > 0): power law, then comm, then
  /// memory.
  double eval(double n) const;
  double deriv_n(double n) const;
  bool is_convex() const;

  /// Each present term's name ("powerlaw", "comm", "memory") and seconds at
  /// n nodes, in eval order.
  std::vector<std::pair<std::string, double>> term_seconds(double n) const;

  /// The part a MINLP epigraph must carry as a nonlinear constraint: the
  /// power law, plus the memory charge when gamma != 0.
  double eval_nonlinear(double n) const;
  double deriv_nonlinear(double n) const;
  std::string expr_nonlinear(const std::string& var) const;

  /// The affine part slope * n + intercept, the comm charge (intercept 0);
  /// returns true when it is nonzero.
  bool linear_part(double& slope, double& intercept) const;

  /// Smallest node count satisfying the memory knapsack row (1 when none).
  long long min_feasible_nodes() const;

  /// Best integer node count in [lo, hi] and its time. A power-law-only
  /// model delegates to Model::argmin_int; otherwise a convex
  /// first-difference bisection (or a linear scan for a non-convex model).
  std::pair<long long, double> argmin_int(long long lo, long long hi) const;

  std::string str() const;
  /// Algebraic rendering in terms of a named variable (AMPL export).
  std::string expr(const std::string& var) const;

 private:
  Model power_law_;
  std::optional<double> comm_slope_;  ///< beta * volume, s per node of span
  std::optional<MemoryRow> memory_;
};

}  // namespace hslb::perf

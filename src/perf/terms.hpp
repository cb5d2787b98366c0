// Pluggable cost-term architecture: a fitted/assembled performance model is
// a sum of named CostTerm contributions instead of the hard-coded power law.
//
//   T(n) = sum_k  term_k(params_k, n)
//
// Bundled terms:
//
//   * powerlaw — the paper's full a/n + b*n^c + d (4 fitted params); with
//     only this term every code path is bit-identical to the pre-refactor
//     power-law pipeline (the term delegates to perf::Model verbatim);
//   * compute  — a/n^c scalable work alone (2 fitted params);
//   * serial   — d serial floor alone (1 fitted param);
//   * comm     — beta * volume * n: per-neighbour halo exchange, where
//     `volume` GB must be sent to each of the task's n spanning ranks by
//     its off-node neighbours (sender-side link serialization; see
//     sim::Machine::comm_seconds). beta = seconds/GB is either fitted from
//     in-situ samples or pinned to 1/bandwidth from the machine spec;
//   * memory   — gamma * max(0, mem - capacity*n): paging penalty on the
//     working-set GB spilled past node memory across the task's span
//     (equals sim::Machine's paging charge exactly); also implies the
//     knapsack row capacity * n >= mem the MINLP emits.
//
// Terms with zero parameters are "pinned" (analytic, from the machine or
// workload spec); terms with parameters take part in the nlsq fit
// (perf::fit_cost). All bundled terms are convex in n for non-negative
// parameters, preserving the branch-and-bound optimality argument (§III-E).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "perf/model.hpp"

namespace hslb::perf {

/// Data-driven scales the fitter derives from the sample set, handed to
/// each term so it can size its parameter bounds and start box (the same
/// quantities the pre-refactor power-law fit computed inline).
struct FitScales {
  // Knobs copied from FitOptions.
  double min_c = 1.0;
  double max_c = 3.0;
  double a_scale = 50.0;
  double d_scale = 2.0;
  // Sample statistics.
  double max_y = 0.0;   ///< largest observed seconds
  double min_y = 0.0;   ///< smallest observed seconds
  double max_an = 0.0;  ///< max over samples of seconds * nodes
};

/// One named, possibly-parameterized additive contribution to a cost model.
/// Stateless with respect to parameter *values* — those live in the owning
/// CostModel — so a term instance can be shared between models.
class CostTerm {
 public:
  virtual ~CostTerm() = default;

  virtual const std::string& name() const = 0;

  /// Number of fitted parameters (0 = pinned/analytic term).
  virtual std::size_t num_params() const = 0;

  /// Seconds contributed at n nodes (n > 0). `p` holds this term's
  /// parameter slice (num_params() entries; may be empty).
  virtual double eval(std::span<const double> p, double n) const = 0;

  /// d(eval)/dn — outer-approximation cuts and argmin search.
  virtual double deriv_n(std::span<const double> p, double n) const = 0;

  /// Gradient with respect to the term's own parameters at fixed n; only
  /// called when num_params() > 0. `out` has num_params() entries.
  virtual void grad_params(std::span<const double> p, double n,
                           std::span<double> out) const;

  /// Fit box constraints for the term's parameters (num_params() entries).
  virtual void fit_bounds(const FitScales& scales, std::span<double> lo,
                          std::span<double> hi) const;

  /// Multistart sampling box, strictly inside the positive orthant.
  virtual void start_box(const FitScales& scales, std::span<double> lo,
                         std::span<double> hi) const;

  /// True when the contribution is convex in n on n > 0.
  virtual bool is_convex(std::span<const double> p) const = 0;

  /// Algebraic rendering in terms of a named variable (AMPL export).
  virtual std::string expr(std::span<const double> p,
                           const std::string& var) const = 0;

  /// Affine decomposition: when eval(p, n) == slope*n + intercept for all
  /// n >= 1, fills both and returns true (the MINLP assembles such terms
  /// as exact linear rows instead of nonlinear epigraph contributions).
  virtual bool linear_in_n(std::span<const double> p, double& slope,
                           double& intercept) const;

  /// Memory-capacity knapsack row capacity * n >= demand implied by the
  /// term; returns true and fills both when one exists.
  virtual bool knapsack_row(double& capacity_gb_per_node,
                            double& demand_gb) const;
};

using TermPtr = std::shared_ptr<const CostTerm>;

/// The shared 4-parameter power-law term (a, b, c, d). All methods
/// delegate to perf::Model, so a single-powerlaw CostModel reproduces the
/// pre-refactor float operations exactly.
TermPtr power_law_term();

/// a/n^c scalable-work term (params a, c).
TermPtr compute_term();

/// Serial-floor term (param d).
TermPtr serial_term();

/// Communication term beta * volume_gb * n. Without `beta` the slope
/// seconds-per-GB is fitted (1 param); with it the term is pinned.
TermPtr make_comm_term(double volume_gb);
TermPtr make_comm_term(double volume_gb, double beta_s_per_gb);

/// Memory-pressure term gamma * max(0, memory_gb - capacity_gb * n) with
/// the implied knapsack row. Without `gamma` the paging slope is fitted
/// (1 param); with it the term is pinned (gamma 0 = hard constraint only).
TermPtr make_memory_term(double memory_gb, double capacity_gb_per_node);
TermPtr make_memory_term(double memory_gb, double capacity_gb_per_node,
                         double gamma_s_per_gb);

/// A performance model assembled from terms with bound parameter values.
/// Implicitly constructible from the classic power law so every existing
/// call site (BudgetTask, benches, tests) keeps compiling — and behaving —
/// unchanged.
class CostModel {
 public:
  CostModel() = default;
  CostModel(const Model& power_law);  // NOLINT(google-explicit-constructor)

  void add(TermPtr term, std::vector<double> params = {});

  std::size_t num_terms() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const CostTerm& term(std::size_t i) const;
  std::span<const double> params(std::size_t i) const;

  /// Seconds contributed by term i alone at n nodes.
  double term_seconds(std::size_t i, double n) const;

  /// Total predicted seconds at n nodes (n > 0).
  double eval(double n) const;
  double deriv_n(double n) const;
  bool is_convex() const;

  /// Sum restricted to terms without an affine decomposition — the part a
  /// MINLP epigraph must carry as a nonlinear constraint.
  double eval_nonlinear(double n) const;
  double deriv_nonlinear(double n) const;
  bool has_nonlinear() const;
  std::string expr_nonlinear(const std::string& var) const;

  /// Accumulated affine part over linear_in_n terms; returns true when it
  /// is nonzero (slope != 0 or intercept != 0).
  bool linear_part(double& slope, double& intercept) const;

  /// Smallest node count satisfying every knapsack row (1 when none).
  long long min_feasible_nodes() const;

  /// Best integer node count in [lo, hi] and its time. A single-powerlaw
  /// model delegates to Model::argmin_int (bit-identical to the seed);
  /// otherwise a convex first-difference bisection (or a linear scan for
  /// non-convex models).
  std::pair<long long, double> argmin_int(long long lo, long long hi) const;

  /// Parameters of the first powerlaw term, when one is present (used to
  /// surface classic (a,b,c,d) fits in reports and model I/O).
  std::optional<Model> power_law() const;

  std::string str() const;
  std::string expr(const std::string& var) const;

 private:
  struct Entry {
    TermPtr term;
    std::vector<double> params;
  };
  std::vector<Entry> entries_;
};

}  // namespace hslb::perf

namespace hslb {
// The architecture is substrate-agnostic; the solver layer names the
// abstraction hslb::CostTerm. (The assembled model stays perf::CostModel to
// avoid colliding with hslb::fmo::CostModel, the FMO ground-truth
// generator, in translation units that import both namespaces.)
using CostTerm = perf::CostTerm;
}  // namespace hslb

// The three CESM component-layout models of Table I / Figure 1.
//
//   Layout 1 (hybrid, the paper's focus): atmosphere runs sequentially
//     after {ice || lnd} on one processor block, ocean concurrently on the
//     rest:            T = max( max(T_ice, T_lnd) + T_atm, T_ocn )
//   Layout 2: ice + lnd + atm sequential on one block, ocean concurrent:
//                      T = max( T_ice + T_lnd + T_atm, T_ocn )
//   Layout 3: everything sequential on all nodes:
//                      T = T_ice + T_lnd + T_atm + T_ocn
//
// Components whose feasible node counts are an explicit "sweet spot" set
// (ocean always; atmosphere at 1 degree) take a count from the set; the
// others an integer range. The optional T_sync constraint (Table I lines
// 9, 18-19) keeps |T_lnd - T_ice| within a tolerance in layout 1, the only
// layout that runs lnd and ice side by side; §III-A warns it can reduce
// performance, and it is off by default (bench/cesm_tsync_ablation).
//
// solve_layout solves a layout exactly, without branch-and-bound. For a
// convex model (a, b, d >= 0 and c >= 1) T is unimodal along a
// component's sorted choices: strictly falling up to its least minimizer
// (the argmin), never falling after it. Three facts follow.
//
//   1. A component's best time on at most x nodes is at the largest choice
//      <= x, capped at the argmin.
//   2. The lnd/ice split of an atm block of m nodes, g(m) = min over
//      l + i <= m of max(T_lnd(l), T_ice(i)), is a two-task min-max: as l
//      grows up to lnd's argmin, T_lnd falls while ice's best time on the
//      other m - l nodes (fact 1) rises, so the least max sits at their
//      crossing, which bisection finds (as hslb::certify_budget does).
//   3. Up to the ocean's argmin T_ocn falls as the ocean grows, while the
//      block's best time on the rest, P(N - o), rises: a best over fewer
//      nodes is no better. So max(T_ocn(o), P(N - o)) is least at their
//      crossing, found by bisection. An ocean past its argmin is no faster
//      and leaves the block fewer nodes, so it never wins.
//
// Layout 3 is four independent argmins. Layout 2 is fact 3 with P(B) the
// sum of the three block components' best times on B nodes (fact 1).
// Layout 1 is fact 3 with P(B) = min over atm counts m <= B of
// T_atm(m) + g(m). Up to atm's argmin both terms fall, so the largest such
// m is best there. Past it T_atm rises while g falls, so the counts
// p..q there cost at least T_atm(p) + g(q); an interval search prunes every
// interval whose bound exceeds the best total found (all of them at once
// when the atm argmin lies beyond the block, as it does for the published
// CESM curves). A finite T_sync puts lnd and ice on tsync_grid and replaces
// g by a prefix minimum over the node sums of lnd/ice pairs within the
// tolerance. Only two kinds of pair can be best: one component at count x
// and the other at its fewest nodes with a time in [T(x) - tsync, T(x)].
// Any other pair has a pair of this kind with the same max on no more
// nodes. A solve evaluates the models O(log^2 N) times with free ranges
// (plus the pruned interval search) and keeps no array that grows with N.
//
// Ties. Layout totals within 1e-9 s tie; the tolerance decides only the
// ocean, the one choice that trades one branch of a max against the
// other. Among tied ocean counts the non-critical branch of the outer max
// is minimized: the block's best time where the ocean is critical, T_ocn
// where the block is. The block then takes its best allocation on the
// remaining nodes, and among equally good lnd/ice splits the one whose
// non-critical time (the smaller of T_lnd and T_ice) is least. Any exact
// tie left goes to the smaller count: ocean first, then atm, lnd, ice.
#pragma once

#include <array>
#include <limits>
#include <vector>

#include "cesm/component.hpp"
#include "cesm/data.hpp"
#include "minlp/model.hpp"
#include "perf/model.hpp"

namespace hslb::cesm {

enum class Layout { Hybrid = 1, SequentialAtmGroup = 2, FullySequential = 3 };

const char* to_string(Layout l);

/// Combines per-component times into the layout's total wall-clock time.
double layout_total(Layout l, const std::array<double, 4>& seconds);

/// How node counts may be chosen for one component.
struct Choices {
  /// Explicit sweet-spot set (sorted ascending); empty = integer range.
  std::vector<long long> allowed;
  long long lo = 1;  ///< used when allowed is empty
  long long hi = 0;  ///< used when allowed is empty (0 = total nodes)
};

struct LayoutProblem {
  Layout layout = Layout::Hybrid;
  long long total_nodes = 0;
  /// Fitted performance models, indexed by component (lnd, ice, atm, ocn).
  std::array<perf::Model, 4> models;
  std::array<Choices, 4> choices;
  /// Absolute lnd/ice synchronization tolerance in seconds; infinity = off.
  double tsync = std::numeric_limits<double>::infinity();
};

/// Standard problem setup for a resolution: ocean gets its published
/// sweet-spot set (or a free range when `ocean_constrained` is false),
/// atmosphere gets the published set at 1 degree and a free range at 1/8,
/// land and ice get free ranges.
LayoutProblem make_problem(Resolution r, Layout layout, long long total_nodes,
                           const std::array<perf::Model, 4>& models,
                           bool ocean_constrained = true);

struct Solution {
  std::array<long long, 4> nodes{};
  std::array<double, 4> predicted_seconds{};  ///< model value at nodes
  double predicted_total = 0.0;  ///< layout_total of predicted_seconds
  double seconds = 0.0;          ///< wall time of the solve
};

/// Candidate lnd/ice node counts in [lo, hi] under a finite T_sync: every
/// count up to 512, then a 2% geometric grid. The MINLP and the exact solve
/// both take the counts from here.
std::vector<long long> tsync_grid(long long lo, long long hi);

/// Builds the MINLP of Table I for the problem, the model the paper solves
/// by branch-and-bound (the cross-checks, --export-ampl and the solver
/// benches use it): set choices as SOS1 selector binaries with exact linear
/// time, ranges as integers with a convex outer-approximated epigraph.
/// `n_vars_out`, if non-null, receives the variable indices of (n_lnd,
/// n_ice, n_atm, n_ocn).
minlp::Model build_layout_minlp(const LayoutProblem& problem,
                                std::array<std::size_t, 4>* n_vars_out = nullptr);

/// Solves the layout allocation exactly (see the file comment): the
/// optimum, with the tie rule above. Requires convex models; throws
/// ContractViolation when no allocation is feasible, naming the tolerance
/// and the node count when a finite T_sync admits no lnd/ice pair.
Solution solve_layout(const LayoutProblem& problem);

}  // namespace hslb::cesm

#include "cesm/layouts.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <span>
#include <tuple>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace hslb::cesm {

const char* to_string(Layout l) {
  switch (l) {
    case Layout::Hybrid: return "layout-1-hybrid";
    case Layout::SequentialAtmGroup: return "layout-2-seq-atm-group";
    case Layout::FullySequential: return "layout-3-fully-sequential";
  }
  return "?";
}

double layout_total(Layout l, const std::array<double, 4>& s) {
  const double lnd = s[index(Component::Lnd)];
  const double ice = s[index(Component::Ice)];
  const double atm = s[index(Component::Atm)];
  const double ocn = s[index(Component::Ocn)];
  switch (l) {
    case Layout::Hybrid:
      return std::max(std::max(ice, lnd) + atm, ocn);
    case Layout::SequentialAtmGroup:
      return std::max(ice + lnd + atm, ocn);
    case Layout::FullySequential:
      return ice + lnd + atm + ocn;
  }
  HSLB_ASSERT(!"unreachable");
  return 0.0;
}

LayoutProblem make_problem(Resolution r, Layout layout, long long total_nodes,
                           const std::array<perf::Model, 4>& models,
                           bool ocean_constrained) {
  HSLB_EXPECTS(total_nodes >= 8);
  LayoutProblem p;
  p.layout = layout;
  p.total_nodes = total_nodes;
  p.models = models;

  auto filtered = [total_nodes](const std::vector<long long>& set) {
    std::vector<long long> out;
    for (long long v : set)
      if (v >= 1 && v <= total_nodes) out.push_back(v);
    return out;
  };

  // lnd / ice: free integer ranges.
  for (Component c : {Component::Lnd, Component::Ice}) {
    p.choices[index(c)].lo = 1;
    p.choices[index(c)].hi = total_nodes;
  }
  // atm: published set at 1 degree, free range at 1/8 degree.
  if (r == Resolution::Deg1) {
    p.choices[index(Component::Atm)].allowed = filtered(atm_allowed_nodes_deg1());
  } else {
    p.choices[index(Component::Atm)].lo = 1;
    p.choices[index(Component::Atm)].hi = total_nodes;
  }
  // ocn: published sweet spots, or a free range when unconstrained (§IV-B).
  if (ocean_constrained) {
    p.choices[index(Component::Ocn)].allowed = filtered(ocean_allowed_nodes(r));
    HSLB_EXPECTS(!p.choices[index(Component::Ocn)].allowed.empty());
  } else {
    p.choices[index(Component::Ocn)].lo = 2;
    p.choices[index(Component::Ocn)].hi = total_nodes;
  }
  return p;
}

namespace {

/// Per-component variable bundle inside the MINLP.
struct CompVars {
  std::size_t n = 0;  ///< node-count variable
  std::size_t t = 0;  ///< component-time variable
  bool exact = false; ///< t is an exact linear expression (set-based)
};

/// Only layout 1 runs lnd and ice side by side, so only it syncs them.
bool has_sync_row(const LayoutProblem& p) {
  return p.layout == Layout::Hybrid && std::isfinite(p.tsync);
}

long long lowest_choice(const Choices& ch) {
  return ch.allowed.empty() ? ch.lo : ch.allowed.front();
}

/// Adds one component's variables and node/time structure.
CompVars add_component(minlp::Model& m, Component c, const Choices& ch,
                       const perf::Model& pm, long long total_nodes,
                       double t_max) {
  const std::string name = to_string(c);
  CompVars v;
  if (!ch.allowed.empty()) {
    // Sweet-spot set: z_k binaries, SOS1, exact linear time.
    HSLB_EXPECTS(std::is_sorted(ch.allowed.begin(), ch.allowed.end()));
    v.exact = true;
    // n is fully determined by the binary selectors, so it can stay
    // continuous — integrality comes from the z_k link (fewer branch
    // candidates for the tree search).
    v.n = m.add_continuous(static_cast<double>(ch.allowed.front()),
                           static_cast<double>(ch.allowed.back()), "n_" + name);
    v.t = m.add_continuous(0.0, t_max, "t_" + name);
    std::vector<std::size_t> zs;
    std::vector<double> weights;
    std::vector<lp::Coeff> ones, node_link, time_link;
    for (long long cand : ch.allowed) {
      const auto z = m.add_binary("z_" + name + "_" + std::to_string(cand));
      zs.push_back(z);
      weights.push_back(static_cast<double>(cand));
      ones.push_back({z, 1.0});
      node_link.push_back({z, static_cast<double>(cand)});
      time_link.push_back({z, pm.eval(static_cast<double>(cand))});
    }
    m.add_linear(ones, 1.0, 1.0, "pick_" + name);
    node_link.push_back({v.n, -1.0});
    m.add_linear(node_link, 0.0, 0.0, "link_n_" + name);
    time_link.push_back({v.t, -1.0});
    m.add_linear(time_link, 0.0, 0.0, "link_t_" + name);
    m.add_sos1(minlp::Sos1{"sos_" + name, std::move(zs), std::move(weights)});
  } else {
    const long long hi = ch.hi == 0 ? total_nodes : ch.hi;
    HSLB_EXPECTS(ch.lo >= 1 && hi >= ch.lo);
    v.n = m.add_integer(static_cast<double>(ch.lo), static_cast<double>(hi),
                        "n_" + name);
    v.t = m.add_continuous(0.0, t_max, "t_" + name);
    // Convex epigraph: pm(n) - t <= 0, outer-approximated during the solve.
    minlp::NonlinearConstraint con;
    con.name = "T_" + name;
    con.formula = pm.expr("n_" + name) + " - t_" + name + " <= 0";
    con.vars = {v.n, v.t};
    const auto n_var = v.n;
    const auto t_var = v.t;
    con.value = [n_var, t_var, pm](std::span<const double> x) {
      return pm.eval(x[n_var]) - x[t_var];
    };
    con.gradient = [n_var, t_var, pm](std::span<const double> x) {
      return std::vector<minlp::GradEntry>{{n_var, pm.deriv_n(x[n_var])},
                                           {t_var, -1.0}};
    };
    m.add_nonlinear(std::move(con));
  }
  return v;
}

}  // namespace

std::vector<long long> tsync_grid(long long lo, long long hi) {
  HSLB_EXPECTS(lo >= 1 && hi >= lo);
  std::vector<long long> grid;
  for (long long v = lo; v <= std::min<long long>(hi, 512); ++v)
    grid.push_back(v);
  double v = 512.0;
  while (static_cast<long long>(v) < hi) {
    v *= 1.02;
    const auto iv = std::min<long long>(static_cast<long long>(v), hi);
    if (iv >= lo && (grid.empty() || iv > grid.back())) grid.push_back(iv);
  }
  return grid;
}

minlp::Model build_layout_minlp(const LayoutProblem& p,
                                std::array<std::size_t, 4>* n_vars_out) {
  HSLB_EXPECTS(p.total_nodes >= 4);
  for (const auto& model : p.models) HSLB_EXPECTS(model.is_convex());

  // Generous finite bound on every time variable: the sum of all component
  // times at their smallest feasible allocations.
  double t_max = 0.0;
  for (Component c : kComponents) {
    t_max += p.models[index(c)].eval(
        static_cast<double>(lowest_choice(p.choices[index(c)])));
  }
  t_max *= 1.01;

  minlp::Model m;
  // A finite T_sync couples the lnd and ice *time values*; the convex
  // epigraph surrogates t >= T(n) would let those float and make the
  // constraint vacuous. Upgrade both components to the exact set-based
  // encoding on tsync_grid, where t = sum z_k T(v_k) is exact. Only
  // layout 1 has the sync row.
  std::array<Choices, 4> choices = p.choices;
  if (has_sync_row(p)) {
    for (Component c : {Component::Lnd, Component::Ice}) {
      Choices& ch = choices[index(c)];
      if (ch.allowed.empty())
        ch.allowed = tsync_grid(ch.lo, ch.hi == 0 ? p.total_nodes : ch.hi);
    }
  }

  std::array<CompVars, 4> comp;
  for (Component c : kComponents) {
    comp[index(c)] = add_component(m, c, choices[index(c)],
                                   p.models[index(c)], p.total_nodes, t_max);
  }
  const auto& lnd = comp[index(Component::Lnd)];
  const auto& ice = comp[index(Component::Ice)];
  const auto& atm = comp[index(Component::Atm)];
  const auto& ocn = comp[index(Component::Ocn)];

  const auto T = m.add_continuous(0.0, t_max, "T");
  m.set_objective(T, 1.0);
  const double inf = lp::kInf;
  const auto N = static_cast<double>(p.total_nodes);

  switch (p.layout) {
    case Layout::Hybrid: {
      // T_icelnd >= t_ice, t_lnd; T >= T_icelnd + t_atm; T >= t_ocn;
      // n_atm + n_ocn <= N; n_ice + n_lnd <= n_atm.   (Table I, lines 14-21)
      const auto t_icelnd = m.add_continuous(0.0, t_max, "T_icelnd");
      m.add_linear({{t_icelnd, 1.0}, {ice.t, -1.0}}, 0.0, inf, "icelnd_ge_ice");
      m.add_linear({{t_icelnd, 1.0}, {lnd.t, -1.0}}, 0.0, inf, "icelnd_ge_lnd");
      m.add_linear({{T, 1.0}, {t_icelnd, -1.0}, {atm.t, -1.0}}, 0.0, inf,
                   "T_ge_icelnd_plus_atm");
      m.add_linear({{T, 1.0}, {ocn.t, -1.0}}, 0.0, inf, "T_ge_ocn");
      m.add_linear({{atm.n, 1.0}, {ocn.n, 1.0}}, -inf, N, "atm_ocn_budget");
      m.add_linear({{ice.n, 1.0}, {lnd.n, 1.0}, {atm.n, -1.0}}, -inf, 0.0,
                   "icelnd_within_atm");
      if (has_sync_row(p)) {
        // |t_lnd - t_ice| <= tsync  (Table I, lines 18-19). Both components
        // were upgraded to the exact set-based encoding above, so t_lnd and
        // t_ice are the true model values and the tolerance really binds.
        m.add_linear({{lnd.t, 1.0}, {ice.t, -1.0}}, -p.tsync, p.tsync, "tsync");
      }
      break;
    }
    case Layout::SequentialAtmGroup: {
      // T >= t_ice + t_lnd + t_atm; T >= t_ocn; n_j <= N - n_ocn.
      m.add_linear({{T, 1.0}, {ice.t, -1.0}, {lnd.t, -1.0}, {atm.t, -1.0}},
                   0.0, inf, "T_ge_seq");
      m.add_linear({{T, 1.0}, {ocn.t, -1.0}}, 0.0, inf, "T_ge_ocn");
      for (const auto* cv : {&lnd, &ice, &atm}) {
        m.add_linear({{cv->n, 1.0}, {ocn.n, 1.0}}, -inf, N, "within_rest");
      }
      break;
    }
    case Layout::FullySequential: {
      // T >= sum of all four; every component may span all nodes.
      m.add_linear({{T, 1.0},
                    {ice.t, -1.0},
                    {lnd.t, -1.0},
                    {atm.t, -1.0},
                    {ocn.t, -1.0}},
                   0.0, inf, "T_ge_all");
      // n_j <= N is already the variable bound.
      break;
    }
  }

  if (n_vars_out) {
    (*n_vars_out) = {lnd.n, ice.n, atm.n, ocn.n};
  }
  return m;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
/// Layout totals this close are ties (seconds).
constexpr double kTieSeconds = 1e-9;

/// Least k in [lo, hi) with pred(k), for a pred that is false up to some k
/// and true from there on; hi when pred holds nowhere.
template <class Pred>
std::size_t first_true(std::size_t lo, std::size_t hi, Pred pred) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// One component's feasible node counts in ascending order (an explicit
/// set or an integer range) with its model. T is unimodal along them:
/// strictly falling up to argmin(), never falling after.
class Axis {
 public:
  Axis(std::span<const long long> set, long long lo, long long hi,
       const perf::Model& model)
      : set_(set), lo_(lo), hi_(hi), model_(model) {
    HSLB_EXPECTS(model.is_convex());
    HSLB_EXPECTS(set_.empty() ? 1 <= lo_ && lo_ <= hi_ : set_.front() >= 1);
    HSLB_EXPECTS(std::is_sorted(set_.begin(), set_.end()));
    argmin_ = first_true(0, size() - 1,
                         [this](std::size_t k) { return time(k + 1) >= time(k); });
  }

  std::size_t size() const {
    return set_.empty() ? static_cast<std::size_t>(hi_ - lo_ + 1) : set_.size();
  }
  long long at(std::size_t k) const {
    return set_.empty() ? lo_ + static_cast<long long>(k) : set_[k];
  }
  double time(std::size_t k) const {
    return model_.eval(static_cast<double>(at(k)));
  }
  std::size_t argmin() const { return argmin_; }

  /// Index of the largest count <= x; kNone when there is none.
  std::size_t floor(long long x) const {
    if (set_.empty())
      return x < lo_ ? kNone : static_cast<std::size_t>(std::min(x, hi_) - lo_);
    const auto it = std::upper_bound(set_.begin(), set_.end(), x);
    return it == set_.begin() ? kNone
                              : static_cast<std::size_t>(it - set_.begin()) - 1;
  }
  /// Index of the smallest count >= x; size() when there is none.
  std::size_t ceil(long long x) const {
    if (set_.empty())
      return x <= lo_ ? 0
                      : std::min(size(), static_cast<std::size_t>(x - lo_));
    return static_cast<std::size_t>(
        std::lower_bound(set_.begin(), set_.end(), x) - set_.begin());
  }
  /// The best count on at most x nodes (fact 1); kNone when none fits.
  std::size_t best_within(long long x) const {
    const std::size_t f = floor(x);
    return f == kNone ? kNone : std::min(f, argmin_);
  }
  /// The least count whose time lies in [lo_t, hi_t]; kNone when none does.
  std::size_t fewest_in(double lo_t, double hi_t) const {
    const std::size_t k = first_true(
        0, argmin_ + 1, [&](std::size_t j) { return time(j) <= hi_t; });
    if (k <= argmin_ && time(k) >= lo_t) return k;
    // Up to the argmin T falls past the window without landing in it;
    // past the argmin it rises.
    const std::size_t j = first_true(
        argmin_ + 1, size(), [&](std::size_t q) { return time(q) >= lo_t; });
    return j < size() && time(j) <= hi_t ? j : kNone;
  }
  /// Among counts <= x with a time in [lo_t, hi_t], the fastest (the least
  /// count of equally fast ones); kNone when there is none.
  std::size_t fastest_within(long long x, double lo_t, double hi_t) const {
    const std::size_t f = floor(x);
    if (f == kNone) return kNone;
    const std::size_t top = std::min(f, argmin_);
    // Falling part: the last count still at or above lo_t.
    std::size_t best = first_true(
        0, top + 1, [&](std::size_t j) { return time(j) < lo_t; });
    best = best == 0 || time(best - 1) > hi_t ? kNone : best - 1;
    // Rising part: the first count at or above lo_t.
    if (f > argmin_ && std::isfinite(lo_t)) {
      const std::size_t j = first_true(
          argmin_ + 1, f + 1, [&](std::size_t q) { return time(q) >= lo_t; });
      if (j <= f && time(j) <= hi_t && (best == kNone || time(j) < time(best)))
        best = j;
    }
    return best;
  }

 private:
  std::span<const long long> set_;
  long long lo_;
  long long hi_;
  const perf::Model& model_;
  std::size_t argmin_ = 0;
};

/// The lnd/ice split of a layout-1 block: g(m), the least
/// max(T_lnd(l), T_ice(i)) over l + i <= m with |T_lnd - T_ice| <= tsync.
class Split {
 public:
  Split(const Axis& lnd, const Axis& ice, double tsync)
      : lnd_(lnd), ice_(ice), tsync_(tsync) {
    if (std::isfinite(tsync_)) build_frontier();
  }

  /// The least block that hosts a split; LLONG_MAX when none does.
  long long min_nodes() const {
    if (!std::isfinite(tsync_)) return lnd_.at(0) + ice_.at(0);
    return frontier_.empty() ? std::numeric_limits<long long>::max()
                             : frontier_.front().first;
  }

  /// g(m); infinity when no split fits m nodes.
  double value(long long m) const {
    if (std::isfinite(tsync_)) {
      const auto it = std::upper_bound(
          frontier_.begin(), frontier_.end(), m,
          [](long long x, const auto& e) { return x < e.first; });
      return it == frontier_.begin() ? kInf : std::prev(it)->second;
    }
    // Fact 2: the crossing of falling T_lnd(l) and rising best ice time.
    const std::size_t top_l = lnd_.floor(m - ice_.at(0));
    if (top_l == kNone) return kInf;
    const std::size_t kmax = std::min(top_l, lnd_.argmin());
    const auto ice_time = [&](std::size_t k) {
      return ice_.time(ice_.best_within(m - lnd_.at(k)));
    };
    const std::size_t kc = first_true(0, kmax + 1, [&](std::size_t k) {
      return lnd_.time(k) <= ice_time(k);
    });
    double g = kc <= kmax ? ice_time(kc) : kInf;
    if (kc > 0) g = std::min(g, lnd_.time(kc - 1));
    return g;
  }

  /// The split realizing g(m): of the equally good ones, the least
  /// non-critical time, then the fewer lnd, then ice nodes. Returns the
  /// (lnd, ice) indices and that non-critical time.
  struct Pick {
    std::size_t lnd = kNone;
    std::size_t ice = kNone;
    double slack_time = kInf;
  };
  Pick pick(long long m) const {
    const double g = value(m);
    HSLB_ASSERT(std::isfinite(g));
    Pick best;
    for (const bool lnd_critical : {true, false}) {
      const Axis& crit = lnd_critical ? lnd_ : ice_;
      const Axis& other = lnd_critical ? ice_ : lnd_;
      const std::size_t x = crit.fewest_in(g, g);  // critical at exactly g
      if (x == kNone) continue;
      const std::size_t y = other.fastest_within(m - crit.at(x), g - tsync_, g);
      if (y == kNone) continue;
      Pick p{lnd_critical ? x : y, lnd_critical ? y : x, other.time(y)};
      if (best.lnd == kNone || p.slack_time < best.slack_time ||
          (p.slack_time == best.slack_time &&
           std::pair(p.lnd, p.ice) < std::pair(best.lnd, best.ice)))
        best = p;
    }
    HSLB_ASSERT(best.lnd != kNone);
    return best;
  }

 private:
  /// The prefix minimum of g over node sums, as (nodes, g) with nodes
  /// rising and g strictly falling. Candidates: each count x of either
  /// component with the other at its fewest nodes timed in
  /// [T(x) - tsync, T(x)]; every other pair with the same critical count
  /// uses more nodes for the same max.
  void build_frontier() {
    std::vector<std::pair<long long, double>> cands;
    for (const bool lnd_critical : {true, false}) {
      const Axis& crit = lnd_critical ? lnd_ : ice_;
      const Axis& other = lnd_critical ? ice_ : lnd_;
      for (std::size_t x = 0; x < crit.size(); ++x) {
        const double t = crit.time(x);
        const std::size_t y = other.fewest_in(t - tsync_, t);
        if (y != kNone) cands.emplace_back(crit.at(x) + other.at(y), t);
      }
    }
    std::sort(cands.begin(), cands.end());
    for (const auto& c : cands)
      if (frontier_.empty() || c.second < frontier_.back().second)
        frontier_.push_back(c);
  }

  const Axis& lnd_;
  const Axis& ice_;
  double tsync_;
  std::vector<std::pair<long long, double>> frontier_;
};

/// Layout 1's atm block on at most B nodes: P(B) = min over atm counts
/// m <= B of T_atm(m) + g(m), with the atm index that attains it (the
/// split's least non-critical time, then the fewer atm nodes, on ties).
struct BlockBest {
  double value = kInf;
  std::size_t atm = kNone;
};

BlockBest best_block(const Axis& atm, const Split& split, long long budget) {
  BlockBest best;
  const std::size_t hi = atm.floor(budget);
  const std::size_t lo = atm.ceil(split.min_nodes());
  if (hi == kNone || lo > hi) return best;
  const auto beta = [&](std::size_t k) {
    return atm.time(k) + split.value(atm.at(k));
  };
  const auto consider = [&](std::size_t k) {
    const double v = beta(k);
    if (v < best.value) {
      best = {v, k};
    } else if (v == best.value && k != best.atm && std::isfinite(v)) {
      const double mine = split.pick(atm.at(k)).slack_time;
      const double theirs = split.pick(atm.at(best.atm)).slack_time;
      if (mine < theirs || (mine == theirs && k < best.atm)) best = {v, k};
    }
  };
  // Up to atm's argmin both terms fall: the largest count there is best.
  const std::size_t ka = std::min(hi, atm.argmin());
  if (ka >= lo) consider(ka);
  // Past it T_atm rises and g falls, so counts p..q cost at least
  // T_atm(p) + g(q). Depth-first over halving intervals, pruning each
  // whose bound exceeds the best total found; the stack holds one
  // pending sibling per level.
  const std::size_t first = std::max(lo, atm.argmin() + 1);
  if (first > hi) return best;
  consider(hi);
  struct Range {
    std::size_t p, q;
  };
  std::array<Range, 2 * std::numeric_limits<std::size_t>::digits> stack;
  std::size_t top = 0;
  stack[top++] = {first, hi};
  while (top > 0) {
    const Range r = stack[--top];
    const double bound = atm.time(r.p) + split.value(atm.at(r.q));
    // A relative 1e-12 of slack keeps rounding in the bound from pruning
    // an exact tie.
    if (bound > best.value + 1e-12 * std::max(1.0, std::fabs(best.value)))
      continue;
    if (r.p == r.q) {
      consider(r.p);
      continue;
    }
    const std::size_t mid = r.p + (r.q - r.p) / 2;
    HSLB_ASSERT(top + 2 <= stack.size());
    stack[top++] = {mid + 1, r.q};
    stack[top++] = {r.p, mid};
  }
  return best;
}

[[noreturn]] void infeasible(const LayoutProblem& p) {
  if (has_sync_row(p)) {
    throw ContractViolation(strings::format(
        "precondition failed: no lnd/ice pair within tsync %g s fits a "
        "layout-1 block on %lld nodes",
        p.tsync, p.total_nodes));
  }
  throw ContractViolation(strings::format(
      "precondition failed: no %s allocation fits %lld nodes", to_string(p.layout),
      p.total_nodes));
}

/// A full allocation with its tie-break key: (the non-critical branch of
/// the outer max, the lnd/ice split's non-critical time, the counts in
/// ocean, atm, lnd, ice order). Counts are axis indices.
struct Candidate {
  std::array<std::size_t, 4> at{};  // lnd, ice, atm, ocn
  double outer_slack = 0.0;
  double split_slack = 0.0;

  bool operator<(const Candidate& o) const {
    const auto key = [](const Candidate& c) {
      return std::tuple(c.outer_slack, c.split_slack, c.at[index(Component::Ocn)],
                        c.at[index(Component::Atm)], c.at[index(Component::Lnd)],
                        c.at[index(Component::Ice)]);
    };
    return key(*this) < key(o);
  }
};

}  // namespace

Solution solve_layout(const LayoutProblem& p) {
  const auto t0 = std::chrono::steady_clock::now();
  HSLB_EXPECTS(p.total_nodes >= 4);
  const long long N = p.total_nodes;
  const bool sync = has_sync_row(p);

  // A finite T_sync puts free lnd/ice ranges on the grid the MINLP uses.
  std::array<std::vector<long long>, 4> grids;
  const auto make_axis = [&](Component c) {
    const Choices& ch = p.choices[index(c)];
    const long long hi = ch.hi == 0 ? N : ch.hi;
    std::span<const long long> set = ch.allowed;
    if (set.empty() && sync && (c == Component::Lnd || c == Component::Ice)) {
      grids[index(c)] = tsync_grid(ch.lo, hi);
      set = grids[index(c)];
    }
    return Axis(set, ch.lo, hi, p.models[index(c)]);
  };
  const Axis lnd = make_axis(Component::Lnd);
  const Axis ice = make_axis(Component::Ice);
  const Axis atm = make_axis(Component::Atm);
  const Axis ocn = make_axis(Component::Ocn);
  const std::array<const Axis*, 4> axes{&lnd, &ice, &atm, &ocn};
  const Split split(lnd, ice, sync ? p.tsync : kInf);

  // The block's best on B nodes (layouts 1 and 2), summed as layout_total
  // sums it, and the least B that hosts one.
  const auto block = [&](long long budget) {
    if (p.layout == Layout::Hybrid) return best_block(atm, split, budget).value;
    double t = 0.0;
    for (const Axis* a : {&ice, &lnd, &atm}) {
      const std::size_t k = a->best_within(budget);
      if (k == kNone) return kInf;
      t += a->time(k);
    }
    return t;
  };
  long long block_min = 0;
  if (p.layout == Layout::Hybrid) {
    const std::size_t k = atm.ceil(split.min_nodes());
    if (k >= atm.size()) infeasible(p);
    block_min = atm.at(k);
  } else {
    block_min = std::max({lnd.at(0), ice.at(0), atm.at(0)});
  }

  // Completes an ocean choice into an allocation: the block's best on the
  // nodes left, the lnd/ice split by pick().
  const auto complete = [&](std::size_t o, double outer_slack) {
    Candidate c;
    c.at[index(Component::Ocn)] = o;
    c.outer_slack = outer_slack;
    const long long budget = N - ocn.at(o);
    if (p.layout == Layout::Hybrid) {
      const BlockBest b = best_block(atm, split, budget);
      const Split::Pick s = split.pick(atm.at(b.atm));
      c.at[index(Component::Atm)] = b.atm;
      c.at[index(Component::Lnd)] = s.lnd;
      c.at[index(Component::Ice)] = s.ice;
      c.split_slack = s.slack_time;
    } else {
      for (Component comp : {Component::Lnd, Component::Ice, Component::Atm})
        c.at[index(comp)] = axes[index(comp)]->best_within(budget);
    }
    return c;
  };

  std::array<std::size_t, 4> pick{};
  if (p.layout == Layout::FullySequential) {
    for (Component c : kComponents) pick[index(c)] = axes[index(c)]->argmin();
  } else {
    // Fact 3 over the ocean counts up to its argmin that leave the block
    // room: T_ocn falls along them while the block's best rises.
    const std::size_t room = ocn.floor(N - block_min);
    if (room == kNone) infeasible(p);
    const std::size_t K = std::min(room, ocn.argmin());
    const auto rest = [&](std::size_t k) { return block(N - ocn.at(k)); };
    const std::size_t kc = first_true(0, K + 1, [&](std::size_t k) {
      return ocn.time(k) <= rest(k);
    });
    double best = kc <= K ? rest(kc) : kInf;
    if (kc > 0) best = std::min(best, ocn.time(kc - 1));
    if (!std::isfinite(best)) infeasible(p);
    // Tied ocean counts form one run around the crossing. Where the ocean
    // is critical (left of it) the block's best, the non-critical branch,
    // rises with the ocean, so the run's first count is best there; where
    // the block is (right of it) T_ocn falls, so its last count is.
    const double cut = best + kTieSeconds;
    std::optional<Candidate> chosen;
    const std::size_t kl = first_true(
        0, kc, [&](std::size_t k) { return ocn.time(k) <= cut; });
    if (kl < kc) chosen = complete(kl, rest(kl));
    const std::size_t kr_end = first_true(
        kc, K + 1, [&](std::size_t k) { return rest(k) > cut; });
    if (kr_end > kc) {
      const Candidate right = complete(kr_end - 1, ocn.time(kr_end - 1));
      if (!chosen || right < *chosen) chosen = right;
    }
    pick = chosen->at;
  }

  Solution sol;
  for (Component c : kComponents) {
    const auto i = index(c);
    sol.nodes[i] = axes[i]->at(pick[i]);
    sol.predicted_seconds[i] = p.models[i].eval(static_cast<double>(sol.nodes[i]));
  }
  sol.predicted_total = layout_total(p.layout, sol.predicted_seconds);
  sol.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return sol;
}

}  // namespace hslb::cesm

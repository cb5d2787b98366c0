#include "minlp/bnb.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <queue>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/contracts.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "lp/simplex.hpp"

namespace hslb::minlp {

std::string to_string(BnbStatus s) {
  switch (s) {
    case BnbStatus::Optimal: return "optimal";
    case BnbStatus::Infeasible: return "infeasible";
    case BnbStatus::NodeLimit: return "node-limit";
    case BnbStatus::TimeLimit: return "time-limit";
  }
  return "?";
}

bool propagate_bounds(const Model& model, BoundOverrides& bounds,
                      double int_tol, std::size_t max_passes,
                      std::size_t* tightened) {
  const std::size_t n = model.num_vars();
  std::vector<double> lb(n), ub(n);
  for (std::size_t v = 0; v < n; ++v) {
    lb[v] = bounds.lb(model, v);
    ub[v] = bounds.ub(model, v);
    if (lb[v] > ub[v]) return false;
  }
  std::size_t improved = 0;
  auto rel = [](double v) { return 1.0 + std::fabs(v); };
  auto box_ok = [&](std::size_t v) {
    return lb[v] <= ub[v] + 1e-9 * rel(ub[v]);
  };
  // Tightens one side of v's box; integer domains round the implied value
  // inward. Returns false when the box empties.
  auto tighten = [&](std::size_t v, double val, bool is_lower) {
    if (!std::isfinite(val)) return true;
    if (model.is_integer(v))
      val = is_lower ? std::ceil(val - int_tol) : std::floor(val + int_tol);
    if (is_lower) {
      if (val > lb[v] + 1e-9 * rel(val)) {
        lb[v] = val;
        ++improved;
      }
    } else {
      if (val < ub[v] - 1e-9 * rel(val)) {
        ub[v] = val;
        ++improved;
      }
    }
    return box_ok(v);
  };

  bool changed = true;
  for (std::size_t pass = 0; pass < max_passes && changed; ++pass) {
    const std::size_t before = improved;
    changed = false;

    // Linear rows: with every other column at its extreme the row bound
    // caps how far each column can move (the node-level analogue of the
    // LP presolve's activity tightening, plus integer rounding).
    for (std::size_t r = 0; r < model.num_linear(); ++r) {
      const double rlb = model.linear_lower(r);
      const double rub = model.linear_upper(r);
      double amin = 0.0, amax = 0.0;
      std::size_t inf_min = 0, inf_max = 0;
      for (const auto& [v, c] : model.linear_coeffs(r)) {
        const double at_lo = c > 0.0 ? lb[v] : ub[v];
        const double at_hi = c > 0.0 ? ub[v] : lb[v];
        if (std::isfinite(at_lo)) amin += c * at_lo; else ++inf_min;
        if (std::isfinite(at_hi)) amax += c * at_hi; else ++inf_max;
      }
      if (inf_min == 0 && rub != kInf && amin > rub + 1e-7 * rel(rub))
        return false;
      if (inf_max == 0 && rlb != -kInf && amax < rlb - 1e-7 * rel(rlb))
        return false;
      for (const auto& [v, c] : model.linear_coeffs(r)) {
        const double cmin = c > 0.0 ? c * lb[v] : c * ub[v];
        const double cmax = c > 0.0 ? c * ub[v] : c * lb[v];
        if (rub != kInf) {
          const bool v_inf = !std::isfinite(cmin);
          if (inf_min == 0 || (inf_min == 1 && v_inf)) {
            const double rest = v_inf ? amin : amin - cmin;
            double val = (rub - rest) / c;
            val += (c > 0.0 ? 1.0 : -1.0) * 1e-9 * rel(val);
            if (!tighten(v, val, c < 0.0)) return false;
          }
        }
        if (rlb != -kInf) {
          const bool v_inf = !std::isfinite(cmax);
          if (inf_max == 0 || (inf_max == 1 && v_inf)) {
            const double rest = v_inf ? amax : amax - cmax;
            double val = (rlb - rest) / c;
            val -= (c > 0.0 ? 1.0 : -1.0) * 1e-9 * rel(val);
            if (!tighten(v, val, c > 0.0)) return false;
          }
        }
      }
    }

    // SOS1 sets: two members forced away from zero is infeasible; exactly
    // one forced member pins every sibling to zero.
    for (const Sos1& set : model.sos1()) {
      std::size_t forced = 0;
      for (const std::size_t v : set.vars) {
        if (lb[v] > int_tol || ub[v] < -int_tol) ++forced;
      }
      if (forced >= 2) return false;
      if (forced != 1) continue;
      for (const std::size_t v : set.vars) {
        if (lb[v] > int_tol || ub[v] < -int_tol) continue;  // the forced one
        if (lb[v] > 0.0) continue;  // zero is outside the (tiny) box: skip
        if (ub[v] > 0.0) {
          ub[v] = 0.0;
          ++improved;
        }
        if (lb[v] < 0.0) {
          lb[v] = 0.0;
          ++improved;
        }
      }
    }

    changed = improved != before;
  }

  for (std::size_t v = 0; v < n; ++v) {
    if (lb[v] != bounds.lb(model, v)) bounds.lower[v] = lb[v];
    if (ub[v] != bounds.ub(model, v)) bounds.upper[v] = ub[v];
  }
  if (tightened != nullptr) *tightened += improved;
  return true;
}

namespace {

struct BoundChange {
  std::size_t var;
  bool is_lower;
  double value;
};

struct Node {
  std::ptrdiff_t parent = -1;           ///< index into the node arena
  std::vector<BoundChange> changes;     ///< changes relative to parent
  double bound = -lp::kInf;             ///< parent LP objective (ordering key)
  // Pseudocost bookkeeping: which branching created this node.
  std::ptrdiff_t branch_var = -1;
  int branch_dir = 0;                   ///< +1 = up child, -1 = down child
  double branch_frac = 0.0;             ///< parent fractional distance moved
  /// Basis of the parent LP this node was branched from; warm-start seed
  /// for this node's first LP re-solve.
  lp::Basis basis;
  /// Pool cut ids of the basis's cut rows (rows beyond the linear ones), in
  /// row order. Keying the rows by id lets a child remap the seed onto its
  /// own wave's active-cut layout even after retirements/reactivations.
  std::vector<std::size_t> basis_cuts;
};

/// Heap entry: best-bound-first, FIFO among equal bounds for determinism.
struct HeapEntry {
  double bound;
  std::size_t order;
  std::size_t node;
  bool operator>(const HeapEntry& o) const {
    if (bound != o.bound) return bound > o.bound;
    return order > o.order;
  }
};

/// A child produced by branching, before it gets an arena slot.
struct ChildSpec {
  std::vector<BoundChange> changes;
  double bound;
  std::ptrdiff_t branch_var = -1;
  int branch_dir = 0;
  double branch_frac = 0.0;
};

/// Everything one node expansion wants to do to shared state, recorded by
/// the (read-only) worker and applied at the wave barrier in wave order so
/// the search is identical for every thread count.
struct Outcome {
  std::vector<ChildSpec> children;
  lp::Basis child_basis;  ///< basis of the branched LP, seed for children
  /// Cut layout of child_basis's cut rows (shared ids or appended indices,
  /// translated to final pool ids at merge time).
  std::vector<CutLedger::Ref> child_layout;
  std::vector<std::pair<double, std::vector<double>>> incumbents;  ///< obj, x
  std::vector<Cut> new_cuts;  ///< cuts appended beyond the wave-start layout
  std::vector<std::size_t> reactivated;  ///< retired pool ids found violated
  /// Per wave-start active cut: was it observed at an LP optimum of this
  /// node, and was it ever tight there? Feeds the pool's aging at merge.
  std::vector<char> cut_observed, cut_tight;
  std::optional<double> first_lp_obj;  ///< pass-0 objective (pseudocosts)
  std::size_t lp_solves = 0;
  std::size_t nlp_solves = 0;
  std::size_t lp_pivots = 0;
  std::size_t warm_solves = 0;
  std::size_t bounds_tightened = 0;   ///< domain-propagation improvements
  bool propagated_infeasible = false;  ///< fathomed before any LP solve
  lp::SolveStats lp_stats;
};

class Solver {
 public:
  Solver(const Model& model, const BnbOptions& opt) : model_(model), opt_(opt) {
    // Cold LP solves (root rounds, rejected warm starts, degenerate-vertex
    // guards) run through the LP presolve when enabled; warm re-solves
    // bypass it inside the LP solve.
    opt_.kelley.lp.presolve = opt_.presolve;
    for (std::size_t v = 0; v < model.num_vars(); ++v) {
      HSLB_EXPECTS(std::isfinite(model.lower(v)));
      HSLB_EXPECTS(std::isfinite(model.upper(v)));
    }
    pc_sum_up_.assign(model.num_vars(), 0.0);
    pc_cnt_up_.assign(model.num_vars(), 0.0);
    pc_sum_dn_.assign(model.num_vars(), 0.0);
    pc_cnt_dn_.assign(model.num_vars(), 0.0);
    // The integer columns are scanned on every node (branching candidates,
    // dive picks, QG fixings); on the selector-heavy layout models they are
    // a small slice of the variables, so cache the index list once.
    for (std::size_t v = 0; v < model.num_vars(); ++v) {
      if (model.is_integer(v)) int_vars_.push_back(v);
    }
  }

  BnbResult run() {
    const auto t0 = std::chrono::steady_clock::now();

    // Root domain propagation: tighten the global boxes through the linear
    // rows and SOS structure before the first relaxation is ever built.
    BoundOverrides root_bounds(model_.num_vars());
    if (!propagate_bounds(model_, root_bounds, opt_.int_tol, 4,
                          &result_.bounds_tightened)) {
      ++result_.nodes_propagated_infeasible;
      result_.status = BnbStatus::Infeasible;
      finish(t0);
      return result_;
    }

    // Cross-solve warm seeding: a previous solve's cut pool (valid when the
    // nonlinear constraints are unchanged), fresh linearizations at prior
    // solution points (valid by convexity even after a refit), and the
    // previous incumbent, feasibility-checked against *this* model. All
    // land before the root solve, so the root LP already carries them.
    for (const Cut& c : opt_.seed_cuts) pool_.insert(c);
    for (const auto& point : opt_.seed_points) {
      if (point.size() != model_.num_vars()) continue;
      for (std::size_t k = 0; k < model_.nonlinear().size(); ++k)
        pool_.insert(make_oa_cut(model_, k, point));
    }
    if (!opt_.seed_incumbent.empty() &&
        opt_.seed_incumbent.size() == model_.num_vars()) {
      maybe_update_incumbent(opt_.seed_incumbent,
                             model_.objective_value(opt_.seed_incumbent));
    }

    // One LP engine per concurrently running worker, kept for the whole
    // search (root rounds, node LPs, guards, QG completions and dives) and
    // freed when the search returns; engine reuse leaves every LP answer
    // bit-identical, so which worker ran a node never shows.
    std::vector<lp::Solver> engines(1);

    // Root NLP relaxation: seeds the cut pool (the "initial linearization
    // point" of §III-E) and gives the first global bound.
    KelleyResult root = solve_relaxation(model_, pool_, root_bounds,
                                         opt_.kelley, &engines[0]);
    result_.lp_solves += root.lp_solves;
    result_.lp_pivots += root.lp_pivots;
    result_.lp_stats.merge(root.lp_stats);
    result_.nlp_solves += 1;
    if (root.status == KelleyResult::Status::Infeasible) {
      result_.status = BnbStatus::Infeasible;
      finish(t0);
      return result_;
    }

    nodes_.push_back(Node{});
    nodes_.back().bound = root.objective;
    nodes_.back().basis = std::move(root.basis);
    // The root LP was built over the pool's active cuts in ascending id
    // order (seeded cuts included) and Kelley appends, so its basis cut
    // rows are exactly the active pool in insertion order.
    nodes_.back().basis_cuts = pool_.active_ids();
    heap_.push(HeapEntry{root.objective, next_order_++, 0});

    // Nodes are expanded in synchronized best-bound waves: a wave's nodes
    // are processed by read-only workers against the wave-start incumbent /
    // pseudocosts / cut pool, and their outcomes are merged at the barrier
    // in wave order. The wave composition depends only on wave_size, so the
    // whole search is bit-identical for every solver_threads value.
    ThreadPool threads(opt_.solver_threads);
    engines.resize(threads.size());
    while (!heap_.empty()) {
      if (result_.nodes >= opt_.max_nodes) {
        result_.status = BnbStatus::NodeLimit;
        finish(t0);
        return result_;
      }
      if (elapsed(t0) > opt_.time_limit_seconds) {
        result_.status = BnbStatus::TimeLimit;
        finish(t0);
        return result_;
      }

      std::vector<std::size_t> wave;
      const std::size_t wave_cap = std::max<std::size_t>(1, opt_.wave_size);
      while (!heap_.empty() && wave.size() < wave_cap) {
        const HeapEntry top = heap_.top();
        // Best-bound order: once the top is prunable, so is everything
        // below it *right now* — stop filling, but keep the outer loop
        // going: merging this wave can push children with better bounds.
        if (has_incumbent_ && top.bound >= incumbent_obj_ - opt_.gap_tol)
          break;
        heap_.pop();
        wave.push_back(top.node);
      }
      if (wave.empty()) break;  // the whole frontier is prunable: done
      result_.nodes += wave.size();
      ++result_.waves;

      // Snapshot of the active-cut layout every node of this wave solves
      // against; lifecycle changes apply at the merge barrier only, so the
      // snapshot (and the whole search) is thread-count independent.
      const std::vector<std::size_t> wave_active = pool_.active_ids();
      // Each engine slot pulls wave nodes until none is left; outcomes are
      // stored by wave index, so the merge order never depends on the slot.
      std::vector<Outcome> outcomes(wave.size());
      std::atomic<std::size_t> next{0};
      threads.parallel_for(
          std::min(engines.size(), wave.size()), [&](std::size_t slot) {
            for (std::size_t i = next++; i < wave.size(); i = next++)
              outcomes[i] = process(wave[i], wave_active, engines[slot]);
          });
      for (std::size_t i = 0; i < wave.size(); ++i)
        merge(wave[i], wave_active, std::move(outcomes[i]));
    }

    result_.status = has_incumbent_ ? BnbStatus::Optimal : BnbStatus::Infeasible;
    finish(t0);
    return result_;
  }

 private:
  static double elapsed(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  void finish(std::chrono::steady_clock::time_point t0) {
    result_.seconds = elapsed(t0);
    result_.cuts = pool_.size();
    result_.cuts_retired = pool_.retired_total();
    result_.cuts_reactivated = pool_.reactivated_total();
    result_.pool_cuts = pool_.cuts();
    if (has_incumbent_) {
      result_.objective = incumbent_obj_;
      result_.x = incumbent_;
      result_.has_solution = true;
    }
    // Remaining proven bound: min over open nodes, or the incumbent itself.
    double bound = has_incumbent_ ? incumbent_obj_ : lp::kInf;
    auto heap_copy = heap_;
    while (!heap_copy.empty()) {
      bound = std::min(bound, heap_copy.top().bound);
      heap_copy.pop();
    }
    if (result_.status == BnbStatus::Optimal && has_incumbent_) bound = incumbent_obj_;
    result_.best_bound = bound;
    result_.gap = has_incumbent_ && std::isfinite(bound)
                      ? std::max(0.0, incumbent_obj_ - bound)
                      : lp::kInf;
    if (result_.status == BnbStatus::Optimal) result_.gap = 0.0;
    result_.rel_gap =
        result_.has_solution
            ? result_.gap / std::max(1.0, std::fabs(result_.objective))
            : result_.gap;
  }

  BoundOverrides materialize(std::size_t node) const {
    BoundOverrides b(model_.num_vars());
    // Walk to root collecting the chain, then apply root-to-leaf so that
    // deeper (tighter) changes win.
    std::vector<std::size_t> chain;
    for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(node); i >= 0;
         i = nodes_[static_cast<std::size_t>(i)].parent)
      chain.push_back(static_cast<std::size_t>(i));
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      for (const BoundChange& ch : nodes_[*it].changes) {
        if (ch.is_lower)
          b.lower[ch.var] = ch.value;
        else
          b.upper[ch.var] = ch.value;
      }
    }
    return b;
  }

  void maybe_update_incumbent(const std::vector<double>& x, double obj) {
    // Defense in depth: LP round-off (notably phase-1 residues shifted into
    // heavily-scaled rows) can surface points that violate a linear row;
    // an incumbent must be feasible for the *true* model.
    if (!model_.is_feasible(x, 10 * opt_.feas_tol, 2 * opt_.int_tol)) {
      log::debug() << "bnb: rejecting infeasible incumbent candidate";
      return;
    }
    if (!has_incumbent_ || obj < incumbent_obj_ - 1e-12 * (1.0 + std::fabs(obj))) {
      has_incumbent_ = true;
      incumbent_obj_ = obj;
      incumbent_ = x;
      log::debug() << "bnb: incumbent " << obj << " after " << result_.nodes
                   << " nodes, " << pool_.size() << " cuts";
    }
  }

  /// Fractional integer variable chosen by the configured branch rule,
  /// or nullopt if all are integral.
  std::optional<std::size_t> pick_branch_var(const std::vector<double>& x) const {
    std::optional<std::size_t> best;
    double best_score = -1.0;
    for (const std::size_t v : int_vars_) {
      const double frac = x[v] - std::floor(x[v]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist <= opt_.int_tol) continue;
      double score = dist;  // most-fractional default
      if (opt_.branch_rule == BranchRule::PseudoCost) {
        // Classic product rule with history-averaged unit degradations;
        // variables without history fall back to the global average.
        const double up = pc_cnt_up_[v] > 0.0 ? pc_sum_up_[v] / pc_cnt_up_[v]
                                              : global_pc();
        const double dn = pc_cnt_dn_[v] > 0.0 ? pc_sum_dn_[v] / pc_cnt_dn_[v]
                                              : global_pc();
        constexpr double kEps = 1e-6;
        score = std::max(up * (1.0 - frac), kEps) * std::max(dn * frac, kEps);
      }
      if (score > best_score) {
        best_score = score;
        best = v;
      }
    }
    return best;
  }

  double global_pc() const {
    const double cnt = pc_total_cnt_;
    return cnt > 0.0 ? pc_total_sum_ / cnt : 1.0;
  }

  /// Records the observed degradation of a child node's first LP solve
  /// relative to its parent bound (pseudocost learning).
  void record_pseudocost(const Node& node, double child_obj) {
    if (node.branch_var < 0 || node.branch_frac <= opt_.int_tol) return;
    const double degradation =
        std::max(0.0, child_obj - node.bound) / node.branch_frac;
    const auto v = static_cast<std::size_t>(node.branch_var);
    if (node.branch_dir > 0) {
      pc_sum_up_[v] += degradation;
      pc_cnt_up_[v] += 1.0;
    } else {
      pc_sum_dn_[v] += degradation;
      pc_cnt_dn_[v] += 1.0;
    }
    pc_total_sum_ += degradation;
    pc_total_cnt_ += 1.0;
  }

  /// Most violated SOS1 set (mass outside the largest member), if any.
  std::optional<std::size_t> violated_sos(const std::vector<double>& x) const {
    std::optional<std::size_t> best;
    double best_excess = opt_.int_tol;
    for (std::size_t s = 0; s < model_.sos1().size(); ++s) {
      const auto& set = model_.sos1()[s];
      double total = 0.0, largest = 0.0;
      std::size_t nonzero = 0;
      for (std::size_t v : set.vars) {
        const double a = std::fabs(x[v]);
        total += a;
        largest = std::max(largest, a);
        if (a > opt_.int_tol) ++nonzero;
      }
      if (nonzero <= 1) continue;
      const double excess = total - largest;
      if (excess > best_excess) {
        best_excess = excess;
        best = s;
      }
    }
    return best;
  }

  void branch_sos(std::size_t sos_idx, const std::vector<double>& x,
                  double bound, Outcome& out) const {
    const Sos1& set = model_.sos1()[sos_idx];
    // Split at the weighted mean of the active members, clamped so that each
    // side keeps at least one member free.
    double mass = 0.0, wsum = 0.0;
    for (std::size_t i = 0; i < set.vars.size(); ++i) {
      const double a = std::fabs(x[set.vars[i]]);
      mass += a;
      wsum += a * set.weights[i];
    }
    HSLB_ASSERT(mass > 0.0);
    const double pivot = wsum / mass;
    std::size_t split = 1;  // first index on the right side
    while (split < set.vars.size() && set.weights[split] <= pivot) ++split;
    split = std::clamp<std::size_t>(split, 1, set.vars.size() - 1);

    ChildSpec left, right;
    left.bound = right.bound = bound;
    for (std::size_t i = split; i < set.vars.size(); ++i)
      left.changes.push_back({set.vars[i], false, 0.0});  // right half to 0
    for (std::size_t i = 0; i < split; ++i)
      right.changes.push_back({set.vars[i], false, 0.0});  // left half to 0
    out.children.push_back(std::move(left));
    out.children.push_back(std::move(right));
  }

  void branch_integer(std::size_t var, const std::vector<double>& x,
                      double bound, Outcome& out) const {
    const double v = x[var];
    const double frac = v - std::floor(v);
    ChildSpec down;  // x <= floor
    down.bound = bound;
    down.changes = {{var, false, std::floor(v)}};
    down.branch_var = static_cast<std::ptrdiff_t>(var);
    down.branch_dir = -1;
    down.branch_frac = frac;
    ChildSpec up;  // x >= ceil
    up.bound = bound;
    up.changes = {{var, true, std::ceil(v)}};
    up.branch_var = static_cast<std::ptrdiff_t>(var);
    up.branch_dir = +1;
    up.branch_frac = 1.0 - frac;
    out.children.push_back(std::move(down));
    out.children.push_back(std::move(up));
  }

  /// LP diving heuristic: starting from a fractional relaxation point,
  /// repeatedly fix the most fractional integer to its nearest value and
  /// warm re-solve (each step is a single bound change, so the dual-simplex
  /// repair makes these nearly free); when the point goes integral, the
  /// fixed-integer NLP completes it into an incumbent candidate.
  void round_and_complete(const lp::Model& relax, const std::vector<double>& x0,
                          const lp::Basis& basis0, const BoundOverrides& bounds,
                          CutLedger& local, lp::Solver& engine,
                          Outcome& out) const {
    lp::Model dive = relax;
    std::vector<double> x = x0;
    lp::Basis basis = basis0;
    // Each step pins at least one variable, so #fractional picks bounds the
    // loop; the hard cap keeps a pathological model from stalling a node.
    constexpr std::size_t kMaxDiveSteps = 128;

    for (std::size_t step = 0; step < kMaxDiveSteps; ++step) {
      // A violated SOS set is dived as a unit — pin everything but its
      // dominant member to zero in one step. Per-binary diving would cost
      // hundreds of LP solves on the selector-heavy layout models.
      if (const auto s = violated_sos(x)) {
        const Sos1& set = model_.sos1()[*s];
        std::size_t keep = set.vars[0];
        double keep_mass = -1.0;
        for (std::size_t v : set.vars) {
          if (std::fabs(x[v]) > keep_mass) {
            keep_mass = std::fabs(x[v]);
            keep = v;
          }
        }
        lp::Model trial = dive;
        for (std::size_t v : set.vars) {
          if (v != keep) trial.set_col_upper(v, 0.0);
        }
        lp::Options lp_opt = opt_.kelley.lp;
        if (opt_.warm_start && !basis.empty()) lp_opt.warm_start = &basis;
        lp::Solution sol = engine.solve(trial, lp_opt);
        ++out.lp_solves;
        out.lp_pivots += sol.iterations;
        out.lp_stats.merge(sol.stats);
        if (sol.warm_started) ++out.warm_solves;
        if (sol.status != lp::Status::Optimal) return;  // abandon the dive
        if (has_incumbent_ && sol.objective >= incumbent_obj_ - opt_.gap_tol)
          return;
        dive = std::move(trial);
        x = std::move(sol.x);
        basis = std::move(sol.basis);
        continue;
      }

      // Least fractional unfixed integer first: those fixes barely move the
      // relaxation, so the genuinely contested variables are decided last,
      // when the LP has the most information. None left means the dive
      // point is integral and ready for NLP completion.
      std::optional<std::size_t> pick;
      double best_dist = 1.0;
      for (const std::size_t v : int_vars_) {
        if (dive.col_lower(v) == dive.col_upper(v)) continue;
        const double frac = x[v] - std::floor(x[v]);
        const double dist = std::min(frac, 1.0 - frac);
        if (dist > opt_.int_tol && dist < best_dist) {
          best_dist = dist;
          pick = v;
        }
      }
      if (!pick) break;

      // Steepest descent between the two roundings: fixing against the
      // objective's pull (e.g. shrinking the binding task of a min-max
      // model) compounds over a whole dive into a useless incumbent.
      bool stepped = false;
      double best_obj = lp::kInf;
      lp::Model best_model;
      lp::Solution best_sol;
      for (const double r : {std::floor(x[*pick]), std::ceil(x[*pick])}) {
        if (r < dive.col_lower(*pick) || r > dive.col_upper(*pick)) continue;
        lp::Model trial = dive;
        trial.set_col_lower(*pick, r);
        trial.set_col_upper(*pick, r);
        lp::Options lp_opt = opt_.kelley.lp;
        if (opt_.warm_start && !basis.empty()) lp_opt.warm_start = &basis;
        lp::Solution sol = engine.solve(trial, lp_opt);
        ++out.lp_solves;
        out.lp_pivots += sol.iterations;
        out.lp_stats.merge(sol.stats);
        if (sol.warm_started) ++out.warm_solves;
        if (sol.status != lp::Status::Optimal) continue;
        if (sol.objective < best_obj) {
          best_obj = sol.objective;
          best_model = std::move(trial);
          best_sol = std::move(sol);
          stepped = true;
        }
      }
      if (!stepped) return;  // both roundings infeasible: abandon the dive
      // The dive objective only rises as variables get pinned, and the NLP
      // completion is tighter still — once it crosses the incumbent the
      // rest of the dive cannot produce an improvement.
      if (has_incumbent_ && best_obj >= incumbent_obj_ - opt_.gap_tol) return;
      dive = std::move(best_model);
      x = std::move(best_sol.x);
      basis = std::move(best_sol.basis);
    }

    // Fix every integer at the dived point and complete with the NLP.
    BoundOverrides fixed = bounds;
    for (const std::size_t v : int_vars_) {
      const double r = std::clamp(std::round(x[v]), bounds.lb(model_, v),
                                  bounds.ub(model_, v));
      fixed.lower[v] = r;
      fixed.upper[v] = r;
    }
    KelleyOptions nlp_opt = opt_.kelley;
    if (opt_.warm_start && !basis.empty()) nlp_opt.lp.warm_start = &basis;
    KelleyResult nlp = solve_relaxation(model_, local, fixed, nlp_opt, engine);
    out.lp_solves += nlp.lp_solves;
    out.lp_pivots += nlp.lp_pivots;
    out.lp_stats.merge(nlp.lp_stats);
    ++out.nlp_solves;
    if (nlp.status == KelleyResult::Status::Optimal &&
        model_.is_feasible(nlp.x, 10 * opt_.feas_tol, opt_.int_tol)) {
      out.incumbents.emplace_back(nlp.objective, nlp.x);
    }
  }

  /// Expands one node. Read-only with respect to shared state (safe to run
  /// concurrently within a wave); everything it wants to change is recorded
  /// in the returned Outcome.
  Outcome process(std::size_t node, std::span<const std::size_t> wave_active,
                  lp::Solver& engine) const {
    Outcome out;
    CutLedger ledger(pool_, wave_active);  // wave-start layout, private tail
    expand(node, ledger, wave_active, engine, out);
    out.new_cuts = ledger.take_appended();
    out.reactivated = ledger.reactivated();
    return out;
  }

  /// Remaps the parent basis onto this wave's cut layout: linear rows map
  /// 1:1, cut rows are matched by pool id, and active cuts the parent never
  /// saw come in slack-basic. A parent cut row that was retired leaves with
  /// its (basic, since the cut was slack) slack variable, so the remapped
  /// basis usually stays a valid warm start; when it does not, init_warm
  /// rejects it and the node falls back to a cold (presolved) solve.
  lp::Basis remap_parent_basis(std::size_t node,
                               std::span<const std::size_t> wave_active) const {
    const Node& nd = nodes_[node];
    const lp::Basis& pb = nd.basis;
    if (pb.empty()) return {};
    const std::size_t nlin = model_.num_linear();
    if (pb.rows.size() != nlin + nd.basis_cuts.size()) return {};
    lp::Basis b;
    b.cols = pb.cols;
    b.rows.assign(pb.rows.begin(),
                  pb.rows.begin() + static_cast<std::ptrdiff_t>(nlin));
    std::unordered_map<std::size_t, lp::BasisStatus> by_id;
    for (std::size_t i = 0; i < nd.basis_cuts.size(); ++i)
      by_id.emplace(nd.basis_cuts[i], pb.rows[nlin + i]);
    for (const std::size_t id : wave_active) {
      const auto it = by_id.find(id);
      b.rows.push_back(it == by_id.end() ? lp::BasisStatus::Basic
                                         : it->second);
    }
    return b;
  }

  void expand(std::size_t node, CutLedger& ledger,
              std::span<const std::size_t> wave_active, lp::Solver& engine,
              Outcome& out) const {
    BoundOverrides bounds = materialize(node);
    // Domain propagation: push the branching decision through the linear
    // rows and SOS sets. An emptied domain fathoms the node before any
    // simplex work; surviving nodes get tighter child boxes for free.
    // (Infeasibility detection also keeps the relaxation's rows the plain
    // linear+cuts layout that warm-start basis snapshots assume.)
    if (!propagate_bounds(model_, bounds, opt_.int_tol, 4,
                          &out.bounds_tightened)) {
      out.propagated_infeasible = true;
      return;
    }

    // Build the relaxation once; QG passes only append their new cut rows.
    lp::Model relax = build_lp_relaxation(model_, ledger, bounds);
    std::size_t cuts_in_relax = ledger.num_cuts();
    const std::size_t nlin = model_.num_linear();
    lp::Basis basis = remap_parent_basis(node, wave_active);
    out.cut_observed.assign(wave_active.size(), 0);
    out.cut_tight.assign(wave_active.size(), 0);

    for (std::size_t pass = 0; pass < opt_.max_passes_per_node; ++pass) {
      for (std::size_t c = cuts_in_relax; c < ledger.num_cuts(); ++c) {
        relax.add_constraint(ledger.cut(c).coeffs, -lp::kInf,
                             ledger.cut(c).rhs);
      }
      cuts_in_relax = ledger.num_cuts();

      lp::Options lp_opt = opt_.kelley.lp;
      if (opt_.warm_start && !basis.empty()) lp_opt.warm_start = &basis;
      lp::Solution sol = engine.solve(relax, lp_opt);
      ++out.lp_solves;
      out.lp_pivots += sol.iterations;
      out.lp_stats.merge(sol.stats);
      if (sol.warm_started) ++out.warm_solves;

      if (sol.status == lp::Status::Infeasible) return;  // fathom
      HSLB_ASSERT(sol.status == lp::Status::Optimal);
      basis = sol.basis;
      if (pass == 0) out.first_lp_obj = sol.objective;
      // Activity observation for the pool's aging: a wave-start cut whose
      // slack is nonbasic at this optimum is tight (supporting the vertex);
      // one that stays basic-slack across a node's optima did no work here.
      for (std::size_t i = 0; i < wave_active.size(); ++i) {
        out.cut_observed[i] = 1;
        if (sol.basis.rows[nlin + i] != lp::BasisStatus::Basic)
          out.cut_tight[i] = 1;
      }
      // Fathom by bound against the wave-start incumbent (frozen for the
      // whole wave, so the decision is thread-count independent).
      if (has_incumbent_ && sol.objective >= incumbent_obj_ - opt_.gap_tol)
        return;

      // Retired cuts violated at this optimum come back into the LP before
      // any branching decision is made off the point (their absence is the
      // one way retirement could weaken a node bound).
      const double cut_tol =
          opt_.feas_tol * (1.0 + std::fabs(sol.objective));
      if (ledger.reactivate_violated(sol.x, cut_tol) > 0) continue;

      // Branch on SOS sets first: the paper found set branching on the
      // atmosphere allocation two orders of magnitude faster than binary
      // branching.
      auto sos = opt_.use_sos_branching ? violated_sos(sol.x)
                                        : std::optional<std::size_t>{};
      auto bv = sos ? std::optional<std::size_t>{} : pick_branch_var(sol.x);

      // Degenerate warm-vertex guard. On dual-degenerate models the warm
      // re-solve stops at whichever vertex of the optimal face the parent
      // basis repairs into — typically a *fractional* one, since the parent
      // basis keeps the branched integers basic. A cold solve from the slack
      // basis enters only improving columns and so lands on a vertex with
      // most integers sitting at their (integer) bounds; those vertices are
      // what feeds the Quesada-Grossmann step and produces incumbents. So
      // when a warm solve is about to integer-branch without having moved
      // the bound past its parent, re-solve cold and branch from that
      // vertex instead. SOS-branched nodes skip the guard: set branching
      // works off the mass distribution and keeps its warm speedup.
      const double parent_bound = nodes_[node].bound;
      if (bv && sol.warm_started &&
          sol.objective <=
              parent_bound + 1e-9 * (1.0 + std::fabs(parent_bound))) {
        lp::Solution cold = engine.solve(relax, opt_.kelley.lp);
        ++out.lp_solves;
        out.lp_pivots += cold.iterations;
        out.lp_stats.merge(cold.stats);
        if (cold.status == lp::Status::Optimal) {
          sol = std::move(cold);
          basis = sol.basis;
          sos = opt_.use_sos_branching ? violated_sos(sol.x)
                                       : std::optional<std::size_t>{};
          bv = sos ? std::optional<std::size_t>{} : pick_branch_var(sol.x);
        }
      }
      if (sos || bv) {
        // Primal rounding heuristic: without it, best-bound search has
        // nothing to prune with until an LP optimum happens to be integral,
        // and on wide integer boxes (many fractional variables per vertex)
        // that can take thousands of nodes. Fix the integers at the rounded
        // relaxation point and let the fixed-integer NLP complete it. Runs
        // while the node bound undercuts the wave-start incumbent by more
        // than 1%, so the incumbent chases the bound down and the cost
        // vanishes once they meet. Both inputs are frozen for the wave, so
        // the decision is thread-count independent.
        const bool worth_diving =
            opt_.heuristic_dives &&
            (!has_incumbent_ ||
             sol.objective <
                 incumbent_obj_ - 0.01 * (1.0 + std::fabs(incumbent_obj_)));
        if (worth_diving)
          round_and_complete(relax, sol.x, basis, bounds, ledger, engine, out);
        if (sos) {
          branch_sos(*sos, sol.x, sol.objective, out);
        } else {
          branch_integer(*bv, sol.x, sol.objective, out);
        }
        out.child_basis = std::move(basis);
        // The basis's cut rows are the layout slots present in `relax`
        // (the dive may have grown the ledger past that).
        out.child_layout.assign(
            ledger.layout().begin(),
            ledger.layout().begin() +
                static_cast<std::ptrdiff_t>(cuts_in_relax));
        return;
      }

      // Integral (and SOS-feasible unless SOS branching is off; if it is
      // off, an integral point still satisfies SOS1 because the member
      // binaries are integral and tied by the sum-to-one row).
      const double scale = 1.0 + std::fabs(sol.objective);
      const double viol = model_.max_nonlinear_violation(sol.x);
      if (viol <= opt_.feas_tol * scale) {
        out.incumbents.emplace_back(sol.objective, sol.x);
        return;  // LP relaxation optimum is feasible: subtree solved
      }

      // Quesada-Grossmann step: solve the NLP with the integer assignment
      // fixed; a feasible completion becomes an incumbent and its cuts
      // tighten every node.
      BoundOverrides fixed = bounds;
      for (const std::size_t v : int_vars_) {
        const double r = std::round(sol.x[v]);
        fixed.lower[v] = r;
        fixed.upper[v] = r;
      }
      KelleyOptions nlp_opt = opt_.kelley;
      if (opt_.warm_start) nlp_opt.lp.warm_start = &basis;
      KelleyResult nlp =
          solve_relaxation(model_, ledger, fixed, nlp_opt, engine);
      out.lp_solves += nlp.lp_solves;
      out.lp_pivots += nlp.lp_pivots;
      out.lp_stats.merge(nlp.lp_stats);
      ++out.nlp_solves;
      if (nlp.status == KelleyResult::Status::Optimal &&
          model_.is_feasible(nlp.x, 10 * opt_.feas_tol, opt_.int_tol)) {
        out.incumbents.emplace_back(nlp.objective, nlp.x);
      }

      // Ensure the current integral point itself is cut off before
      // re-solving; otherwise a numerically stalled pool would loop. Rows
      // gained by reactivating a retired duplicate count as progress too.
      const std::size_t added =
          ledger.add_violated(model_, sol.x, opt_.feas_tol * scale);
      if (added == 0 && nlp.cuts_added == 0) {
        log::warn() << "bnb: cut generation stalled (violation " << viol
                    << "); fathoming node";
        return;
      }
    }
    log::warn() << "bnb: node pass limit reached; fathoming";
  }

  /// Applies one node's outcome to shared state. Called at the wave barrier
  /// in wave order — the only place shared state mutates.
  void merge(std::size_t node, std::span<const std::size_t> wave_active,
             Outcome out) {
    result_.lp_solves += out.lp_solves;
    result_.nlp_solves += out.nlp_solves;
    result_.lp_pivots += out.lp_pivots;
    result_.tree_lp_pivots += out.lp_pivots;
    result_.warm_solves += out.warm_solves;
    result_.lp_stats.merge(out.lp_stats);
    result_.bounds_tightened += out.bounds_tightened;
    if (out.propagated_infeasible) ++result_.nodes_propagated_infeasible;
    if (out.first_lp_obj) record_pseudocost(nodes_[node], *out.first_lp_obj);

    // Cut lifecycle, applied in wave order: reactivations this node asked
    // for, then its fresh cuts (a duplicate of a retired cut reactivates
    // instead of copying), then its tight/slack observations age the
    // wave-start rows. `appended_ids` keeps the worker-local appended index
    // -> final pool id translation for the children's basis layouts.
    for (const std::size_t id : out.reactivated) pool_.reactivate(id);
    std::vector<std::size_t> appended_ids;
    appended_ids.reserve(out.new_cuts.size());
    for (Cut& c : out.new_cuts) {
      const std::size_t id = pool_.insert(std::move(c));
      pool_.reactivate(id);  // no-op unless it deduped onto a retired cut
      appended_ids.push_back(id);
    }
    for (std::size_t i = 0; i < out.cut_observed.size(); ++i) {
      if (out.cut_observed[i])
        pool_.observe(wave_active[i], out.cut_tight[i] != 0,
                      opt_.cut_age_limit);
    }

    std::vector<std::size_t> basis_cuts;
    basis_cuts.reserve(out.child_layout.size());
    for (const CutLedger::Ref& ref : out.child_layout) {
      basis_cuts.push_back(ref.is_appended ? appended_ids[ref.index]
                                           : ref.index);
    }
    for (ChildSpec& spec : out.children) {
      Node child;
      child.parent = static_cast<std::ptrdiff_t>(node);
      child.changes = std::move(spec.changes);
      child.bound = spec.bound;
      child.branch_var = spec.branch_var;
      child.branch_dir = spec.branch_dir;
      child.branch_frac = spec.branch_frac;
      child.basis = out.child_basis;
      child.basis_cuts = basis_cuts;
      nodes_.push_back(std::move(child));
      heap_.push(HeapEntry{spec.bound, next_order_++, nodes_.size() - 1});
    }
    for (auto& [obj, x] : out.incumbents) maybe_update_incumbent(x, obj);
  }

  const Model& model_;
  BnbOptions opt_;  ///< by value: the ctor folds `presolve` into kelley.lp
  CutPool pool_;
  std::vector<Node> nodes_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;
  std::size_t next_order_ = 0;
  BnbResult result_;
  bool has_incumbent_ = false;
  double incumbent_obj_ = 0.0;
  std::vector<double> incumbent_;
  std::vector<std::size_t> int_vars_;  ///< cached integer column indices
  // Pseudocost state (unit objective degradation per branching direction).
  std::vector<double> pc_sum_up_, pc_cnt_up_, pc_sum_dn_, pc_cnt_dn_;
  double pc_total_sum_ = 0.0;
  double pc_total_cnt_ = 0.0;
};

}  // namespace

BnbResult solve(const Model& model, const BnbOptions& options) {
  Solver s(model, options);
  return s.run();
}

}  // namespace hslb::minlp

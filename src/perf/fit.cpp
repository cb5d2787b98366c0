#include "perf/fit.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "linalg/decomp.hpp"

namespace hslb::perf {

namespace {

// The fit box: the exponent ceiling and the coefficient bounds as multiples
// of data scales, a <= kAScale * max(y * n) and d <= kDScale * min(y).
constexpr double kMaxC = 3.0;
constexpr double kAScale = 50.0;
constexpr double kDScale = 2.0;
/// Grid points over [min_c, kMaxC], and the bracket width at which Brent's
/// refinement of the best grid bracket stops.
constexpr std::size_t kGridPoints = 33;
constexpr double kCTolerance = 1e-10;
/// A free set whose unit-norm columns leave some |R_kk| at or below this is
/// rank-deficient (QR::solve's own floor is 1e-13 * (1 + |R_00|) = 2e-13).
constexpr double kRankTolerance = 1e-12;

/// The best model at one exponent and its SSE over the distinct-count rows.
struct Candidate {
  Model model;
  double sse = std::numeric_limits<double>::infinity();
};

/// Lower SSE wins; among equal SSEs the lower exponent does.
bool better(const Candidate& x, const Candidate& y) {
  return x.sse < y.sse || (x.sse == y.sse && x.model.c < y.model.c);
}

/// Variable projection of the fit: at a fixed exponent c the model is
/// linear in (a, b, d), with columns 1/n, n^c and 1, and the best
/// coefficients inside the box [0, hi] solve a bounded least-squares
/// problem exactly.
///
/// At a fixed c the SSE depends on the samples only through each distinct
/// node count n_k's sample count w_k and mean time t_k:
///   sum_i (y_i - T(n_i))^2 = sum_k w_k (t_k - T(n_k))^2 + const,
/// where the constant (the spread of the samples about their count's mean)
/// does not depend on the model. So the projection works on one row per
/// distinct count, scaled by sqrt(w_k), and compares SSEs without the
/// constant; fit() scores the winner on the raw samples.
///
/// At a fixed c the SSE is a convex quadratic over a box, so a point is a
/// box optimum exactly when it meets the KKT conditions (Lawson & Hanson
/// 1974, ch. 23): per coefficient, dSSE/dθ >= 0 at 0, <= 0 at its upper
/// bound and = 0 strictly inside. Each exponent is decided in up to three
/// steps:
///
///  1. The b = 0 face. Only the n^c column depends on c, so the best
///     (a, 0, d), fixed_best_, is solved once, in the constructor, over the
///     9 active sets with b at 0. With >= 2 distinct counts the columns 1/n
///     and 1 are independent, so it is the face's unique minimizer and meets
///     the conditions in a and d. Its residual r0 does not depend on c
///     either, and there dSSE/db = -2 sum_k r0_k sqrt(w_k) n_k^c. When that
///     is >= 0, b at 0 meets its condition too: fixed_best_ is the box
///     optimum, for one pow per row and a dot product.
///  2. The all-free set. Otherwise {a, b, d} is factored. When it has full
///     rank and its solution lies in the box, that solution is the
///     unconstrained minimizer of a strictly convex SSE, so it is the unique
///     box optimum.
///  3. The enumeration, reached with fewer than 3 distinct counts, a
///     rank-deficient {a, b, d} or an unconstrained solution outside the
///     box. Every other active set that depends on c (each coefficient free,
///     at 0 or at its upper bound; see per_exponent()) is solved by QR on its
///     unit-norm free columns, and the feasible solution with the least SSE
///     wins. A rank-deficient free set is skipped: the box is bounded, so its
///     minimizers include one on a smaller face. The free sets without b are
///     factored once, in the constructor; this step refactors the other 3
///     free sets with b.
///
/// Steps 2 and 3 replace fixed_best_ only with a strictly lower SSE, so a
/// fit with b = 0 scores fixed_best_'s SSE, bit for bit, at every exponent.
/// Nothing is allocated per exponent, apart from a free set's first
/// factorization, which sizes its QR storage.
class Projection {
 public:
  /// Validates the samples, collapses them to one row per distinct node
  /// count, sets the box from their scales and solves the c-free sets.
  explicit Projection(const SampleSet& samples) {
    HSLB_EXPECTS(samples.size() >= 2);
    double max_y = 0.0, min_y = samples.front().seconds, max_an = 0.0;
    for (const auto& s : samples) {
      HSLB_EXPECTS(s.nodes >= 1.0);
      HSLB_EXPECTS(s.seconds > 0.0);
      max_y = std::max(max_y, s.seconds);
      min_y = std::min(min_y, s.seconds);
      max_an = std::max(max_an, s.seconds * s.nodes);
    }
    // Positivity constraints (Table II, line 11) bound every coefficient
    // below by 0.
    hi_ = {kAScale * max_an, std::max(max_y, 1.0), kDScale * min_y};

    // Sorted by (nodes, seconds), so the rows and their sums do not depend
    // on the samples' order.
    SampleSet sorted = samples;
    nodes_.reserve(sorted.size());
    cols_[0].reserve(sorted.size());
    cols_[2].reserve(sorted.size());
    target_.reserve(sorted.size());
    std::sort(sorted.begin(), sorted.end(), [](const Sample& x, const Sample& y) {
      return x.nodes < y.nodes || (x.nodes == y.nodes && x.seconds < y.seconds);
    });
    for (std::size_t i = 0; i < sorted.size();) {
      std::size_t j = i;
      double sum = 0.0;
      for (; j < sorted.size() && sorted[j].nodes == sorted[i].nodes; ++j)
        sum += sorted[j].seconds;
      const double w = static_cast<double>(j - i), root_w = std::sqrt(w);
      nodes_.push_back(sorted[i].nodes);
      cols_[0].push_back(root_w / sorted[i].nodes);
      cols_[2].push_back(root_w);
      target_.push_back(root_w * (sum / w));
      i = j;
    }
    rows_ = nodes_.size();
    HSLB_EXPECTS(rows_ >= 2);
    cols_[1].resize(rows_);
    rhs_.resize(rows_);
    norms_[0] = linalg::norm2(cols_[0]);
    norms_[2] = linalg::norm2(cols_[2]);

    for (std::size_t mask = 1; mask < 8; ++mask) {
      FreeSet& set = free_[mask];
      for (std::size_t j = 0; j < 3; ++j)
        if ((mask >> j & 1) != 0) set.cols[set.k++] = j;
      if (set.k > rows_) continue;
      set.a = linalg::Matrix(rows_, set.k);
      for (std::size_t f = 0; f < set.k; ++f)
        if (set.cols[f] != 1)
          for (std::size_t i = 0; i < rows_; ++i)
            set.a(i, f) = cols_[set.cols[f]][i] / norms_[set.cols[f]];
      if ((mask & kB) == 0) factor(set);
    }
    for (int code = 0; code < 27; ++code)
      if (state(code, 1) == kAtZero) solve(code, 0.0, fixed_best_);
  }

  /// dSSE/dc at `model`, the least-SSE coefficients at its exponent: by the
  /// envelope theorem only the explicit dependence on c counts,
  ///   -2 b sum_k w_k (t_k - T(n_k)) n_k^c ln n_k.
  double slope(const Model& model) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) {
      const double nc = std::pow(nodes_[i], model.c);
      const double r =
          target_[i] - cols_[2][i] * (model.a / nodes_[i] + model.b * nc + model.d);
      sum += r * cols_[2][i] * nc * std::log(nodes_[i]);
    }
    return -2.0 * model.b * sum;
  }

  /// The least-SSE (a, b, d) in the box at exponent c.
  Candidate at(double c) {
    // Step 1: -dSSE/db / 2 at fixed_best_ (r0 costs two multiply-adds a row,
    // so it is recomputed rather than stored).
    const Model& fixed = fixed_best_.model;
    double descent = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) {
      cols_[1][i] = cols_[2][i] * std::pow(nodes_[i], c);
      const double r0 =
          target_[i] - fixed.a * cols_[0][i] - fixed.d * cols_[2][i];
      descent += r0 * cols_[1][i];
    }
    Candidate best = fixed_best_;
    best.model.c = c;
    if (descent <= 0.0) return best;

    // Step 2: a feasible all-free solution is the box optimum.
    norms_[1] = linalg::norm2(cols_[1]);
    refactor(kA | kB | kD);
    if (solve(kAllFree, c, best)) return best;

    // Step 3: every other active set that depends on c.
    for (std::size_t mask : {kB, kA | kB, kB | kD}) refactor(mask);
    for (int code = 0; code < 27; ++code)
      if (code != kAllFree && per_exponent(code, c)) solve(code, c, best);
    return best;
  }

 private:
  /// Coefficient states of an active set, the code of the set with every
  /// coefficient free, and the columns' mask bits.
  static constexpr int kFree = 0, kAtZero = 1, kAtHi = 2;
  static constexpr int kAllFree = 0;
  static constexpr std::size_t kA = 1, kB = 2, kD = 4;

  /// One set of free columns (by bit mask over a, b, d) and its QR.
  struct FreeSet {
    std::array<std::size_t, 3> cols{};
    std::size_t k = 0;
    linalg::Matrix a;  ///< its unit-norm columns, rows_ x k
    linalg::QR qr;
    bool full_rank = false;
  };

  static int state(int code, std::size_t j) {
    return j == 0 ? code % 3 : j == 1 ? code / 3 % 3 : code / 9;
  }

  /// Whether active set `code` is solved at each exponent: every set with
  /// b free, and of the 9 with b at its bound max(max y, 1) only a = d = 0
  /// when c >= 0, since then every n_k^c >= 1, so the b term alone reaches
  /// every mean time and any a, d >= 0 only lengthens each residual. The
  /// sets with b at 0 are solved once.
  static bool per_exponent(int code, double c) {
    constexpr int kOnlyBAtHi = kAtZero + 3 * kAtHi + 9 * kAtZero;
    return state(code, 1) == kFree ||
           (state(code, 1) == kAtHi && (c < 0.0 || code == kOnlyBAtHi));
  }

  static void factor(FreeSet& set) {
    set.qr.factor(set.a);
    set.full_rank = set.qr.min_abs_diag_r() > kRankTolerance;
  }

  /// Refills free set `mask`'s unit-norm n^c column from cols_[1] and
  /// norms_[1], and refactors it.
  void refactor(std::size_t mask) {
    FreeSet& set = free_[mask];
    if (set.k > rows_) return;
    for (std::size_t f = 0; f < set.k; ++f)
      if (set.cols[f] == 1)
        for (std::size_t i = 0; i < rows_; ++i)
          set.a(i, f) = cols_[1][i] / norms_[1];
    factor(set);
  }

  /// Solves active set `code` at exponent c (the n^c column must hold c's)
  /// and replaces `best` when its solution is feasible with a lower SSE.
  /// Returns whether it was solvable and feasible.
  bool solve(int code, double c, Candidate& best) {
    std::array<double, 3> theta{};
    std::size_t mask = 0;
    for (std::size_t j = 0; j < 3; ++j) {
      if (state(code, j) == kAtHi) theta[j] = hi_[j];
      if (state(code, j) == kFree) mask |= std::size_t{1} << j;
    }
    if (mask != 0) {
      const FreeSet& set = free_[mask];
      if (set.k > rows_ || !set.full_rank) return false;
      for (std::size_t i = 0; i < rows_; ++i) {
        rhs_[i] = target_[i];
        for (std::size_t j = 0; j < 3; ++j)
          if (state(code, j) == kAtHi) rhs_[i] -= theta[j] * cols_[j][i];
      }
      std::array<double, 3> x{};
      set.qr.solve(rhs_, std::span<double>(x.data(), set.k));
      for (std::size_t f = 0; f < set.k; ++f) {
        const std::size_t j = set.cols[f];
        theta[j] = x[f] / norms_[j];
        if (!(theta[j] >= 0.0 && theta[j] <= hi_[j])) return false;
      }
    }
    double sse = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) {
      const double r = target_[i] - theta[0] * cols_[0][i] -
                       theta[1] * cols_[1][i] - theta[2] * cols_[2][i];
      sse += r * r;
    }
    if (sse < best.sse) best = {Model{theta[0], theta[1], c, theta[2]}, sse};
    return true;
  }

  std::size_t rows_ = 0;  ///< distinct node counts
  std::array<double, 3> hi_{};
  std::vector<double> nodes_;  ///< n_k, ascending
  /// sqrt(w_k) times 1/n_k, n_k^c and 1, and the column norms.
  std::array<std::vector<double>, 3> cols_;
  std::array<double, 3> norms_{};
  std::vector<double> target_;  ///< sqrt(w_k) times the mean time at n_k
  std::vector<double> rhs_;     ///< the solves' work vector
  std::array<FreeSet, 8> free_;  ///< by free-column mask; [0] unused
  Candidate fixed_best_;         ///< the best active set with b at 0
};

/// The SSE, R² and RMSE of `model` over the samples.
FitResult score(const SampleSet& samples, const Model& model) {
  FitResult out;
  out.model = model;
  std::vector<double> observed, predicted;
  observed.reserve(samples.size());
  predicted.reserve(samples.size());
  for (const auto& s : samples) {
    observed.push_back(s.seconds);
    predicted.push_back(model.eval(s.nodes));
    out.sse += (s.seconds - predicted.back()) * (s.seconds - predicted.back());
  }
  out.r2 = stats::r_squared(observed, predicted);
  out.rmse = stats::rmse(observed, predicted);
  return out;
}

}  // namespace

FitResult fit(const SampleSet& samples, const FitOptions& options) {
  HSLB_EXPECTS(options.min_c <= kMaxC);
  Projection projection(samples);
  const auto grid_c = [&](std::size_t k) {
    return options.min_c + (kMaxC - options.min_c) * static_cast<double>(k) /
                               static_cast<double>(kGridPoints - 1);
  };
  std::array<double, kGridPoints> grid_sse;
  Candidate best;
  std::size_t best_k = 0;
  for (std::size_t k = 0; k < kGridPoints; ++k) {
    const Candidate cand = projection.at(grid_c(k));
    grid_sse[k] = cand.sse;
    if (better(cand, best)) {
      best = cand;
      best_k = k;
    }
  }
  const std::size_t lo_k = best_k == 0 ? 0 : best_k - 1;
  const std::size_t hi_k = std::min(best_k + 1, kGridPoints - 1);
  // A bracket flat to the last bit is a b = 0 fit: every exponent in it
  // fits equally well, and the tie rule keeps the lowest.
  if (grid_sse[lo_k] == best.sse && grid_sse[hi_k] == best.sse)
    return score(samples, best.model);
  // A grid minimum on an exponent bound where the SSE rises into the bracket
  // is the bracket's minimum (Brent's method, too, takes the bracket as
  // unimodal); golden steps toward the bound would take about 20 to say so.
  if ((best_k == 0 && projection.slope(best.model) > 0.0) ||
      (best_k == kGridPoints - 1 && projection.slope(best.model) < 0.0))
    return score(samples, best.model);

  // Brent's method (Brent 1973, ch. 5) on [a, b], the best grid point's
  // bracket: parabolic steps through the three best points so far (x, w,
  // v), golden-section steps when the parabola would leave the bracket or
  // fail to halve the step before last. It starts from the grid's three
  // points, so its first step is usually the parabola through them. It stops
  // once x lies within tol2 of both ends, so the bracket is at most
  // kCTolerance wide.
  const double golden = (3.0 - std::sqrt(5.0)) / 2.0;
  double a = grid_c(lo_k), b = grid_c(hi_k);
  double x = grid_c(best_k), fx = best.sse;
  const bool lo_lower = grid_sse[lo_k] <= grid_sse[hi_k];
  double w = lo_lower ? a : b, fw = lo_lower ? grid_sse[lo_k] : grid_sse[hi_k];
  double v = lo_lower ? b : a, fv = lo_lower ? grid_sse[hi_k] : grid_sse[lo_k];
  double d = b - a, e = b - a;  // the last two steps
  for (;;) {
    const double mid = 0.5 * (a + b);
    const double tol1 =
        std::numeric_limits<double>::epsilon() * std::fabs(x) + kCTolerance / 4;
    const double tol2 = 2.0 * tol1;
    if (std::fabs(x - mid) <= tol2 - 0.5 * (b - a)) break;
    bool parabolic = false;
    if (std::fabs(e) > tol1) {
      const double r = (x - w) * (fx - fv);
      double q = (x - v) * (fx - fw);
      double p = (x - v) * q - (x - w) * r;
      q = 2.0 * (q - r);
      if (q > 0.0) p = -p;
      q = std::fabs(q);
      const double before_last = e;
      e = d;
      if (std::fabs(p) < std::fabs(0.5 * q * before_last) && p > q * (a - x) &&
          p < q * (b - x)) {
        d = p / q;
        parabolic = true;
        if (x + d - a < tol2 || b - (x + d) < tol2)
          d = mid >= x ? tol1 : -tol1;
      }
    }
    if (!parabolic) {
      e = x >= mid ? a - x : b - x;
      d = golden * e;
    }
    const double u = x + (std::fabs(d) >= tol1 ? d : (d >= 0.0 ? tol1 : -tol1));
    const Candidate cand = projection.at(u);
    if (better(cand, best)) best = cand;
    const double fu = cand.sse;
    if (fu <= fx) {
      if (u >= x) {
        a = x;
      } else {
        b = x;
      }
      v = w;
      fv = fw;
      w = x;
      fw = fx;
      x = u;
      fx = fu;
    } else {
      if (u < x) {
        a = u;
      } else {
        b = u;
      }
      if (fu <= fw || w == x) {
        v = w;
        fv = fw;
        w = u;
        fw = fu;
      } else if (fu <= fv || v == x || v == w) {
        v = u;
        fv = fu;
      }
    }
  }
  return score(samples, best.model);
}

std::vector<std::pair<std::string, FitResult>> fit_all(
    const BenchTable& table, const FitOptions& options, ThreadPool* pool) {
  std::vector<std::pair<std::string, FitResult>> out(table.tasks.size());
  const auto fit_one = [&](std::size_t i) {
    const auto& t = table.tasks[i];
    out[i] = {t.task, fit(t.samples, options)};
  };
  if (pool != nullptr) {
    pool->parallel_for(out.size(), fit_one);
  } else if (options.threads == 1) {
    for (std::size_t i = 0; i < out.size(); ++i) fit_one(i);
  } else {
    parallel_for(options.threads, out.size(), fit_one);
  }
  return out;
}

SampleSet fold_observations(const SampleSet& gathered,
                            const std::vector<Observed>& observations,
                            const std::string& task, std::size_t epoch,
                            std::size_t window, double weight) {
  HSLB_EXPECTS(window >= 1);
  HSLB_EXPECTS(weight >= 1.0);
  const std::size_t oldest = epoch + 1 >= window ? epoch + 1 - window : 0;
  const auto reps = static_cast<std::size_t>(std::llround(weight));
  SampleSet out = gathered;
  for (const auto& o : observations) {
    if (o.task != task || o.epoch < oldest || o.epoch > epoch) continue;
    HSLB_EXPECTS(o.nodes >= 1.0 && o.seconds > 0.0);
    for (std::size_t r = 0; r < reps; ++r)
      out.push_back({o.nodes, o.seconds});
  }
  return out;
}

double prediction_drift(const Model& model,
                        const std::vector<Observed>& observations,
                        const std::string& task) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& o : observations) {
    if (o.task != task) continue;
    const double predicted = model.eval(o.nodes);
    if (predicted <= 0.0) continue;
    sum += std::fabs(o.seconds - predicted) / predicted;
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace hslb::perf

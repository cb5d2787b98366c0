#include "perf/fit.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <set>

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
/// Grid points over [min_c, kMaxC], and the width at which the
/// golden-section refinement of the best grid bracket stops.
constexpr std::size_t kGridPoints = 33;
constexpr double kCTolerance = 1e-10;
/// A free set whose unit-norm columns leave some |R_kk| at or below this is
/// rank-deficient (QR::solve's own floor is 1e-13 * (1 + |R_00|) = 2e-13).
constexpr double kRankTolerance = 1e-12;

/// The best model at one exponent and its sum of squared errors.
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
class Projection {
 public:
  /// Validates the samples and sets the box from their scales.
  explicit Projection(const SampleSet& samples) : samples_(samples) {
    HSLB_EXPECTS(samples.size() >= 2);
    std::set<double> distinct;
    double max_y = 0.0, min_y = samples.front().seconds, max_an = 0.0;
    for (const auto& s : samples) {
      HSLB_EXPECTS(s.nodes >= 1.0);
      HSLB_EXPECTS(s.seconds > 0.0);
      distinct.insert(s.nodes);
      max_y = std::max(max_y, s.seconds);
      min_y = std::min(min_y, s.seconds);
      max_an = std::max(max_an, s.seconds * s.nodes);
    }
    HSLB_EXPECTS(distinct.size() >= 2);
    // Positivity constraints (Table II, line 11) bound every coefficient
    // below by 0.
    hi_ = {kAScale * max_an, std::max(max_y, 1.0), kDScale * min_y};
    for (auto& col : cols_) col.resize(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      cols_[0][i] = 1.0 / samples[i].nodes;
      cols_[2][i] = 1.0;
    }
    norms_[0] = linalg::norm2(cols_[0]);
    norms_[2] = linalg::norm2(cols_[2]);
  }

  /// The least-SSE (a, b, d) in the box at exponent c. Every one of the 27
  /// active sets (each coefficient free, at 0 or at its upper bound) is
  /// solved by QR on its unit-norm free columns; the feasible solution with
  /// the least SSE wins. A rank-deficient free set is skipped: the box is
  /// bounded, so its minimizers include one on a smaller face. Active sets
  /// with the same free columns differ only in the right-hand side, so each
  /// of the 7 free-column sets is factored once, on first use.
  Candidate at(double c) {
    const std::size_t m = samples_.size();
    for (std::size_t i = 0; i < m; ++i)
      cols_[1][i] = std::pow(samples_[i].nodes, c);
    norms_[1] = linalg::norm2(cols_[1]);

    Candidate best;
    linalg::Vector rhs(m);
    // By free-column bit mask; empty once factored when rank-deficient.
    std::array<std::optional<linalg::QR>, 8> qr_of;
    std::array<bool, 8> factored{};
    for (int code = 0; code < 27; ++code) {
      // state[j]: 0 = free, 1 = at 0, 2 = at hi_[j].
      const int state[3] = {code % 3, code / 3 % 3, code / 9};
      double theta[3];
      std::size_t free_cols[3], k = 0, mask = 0;
      for (std::size_t j = 0; j < 3; ++j) {
        theta[j] = state[j] == 2 ? hi_[j] : 0.0;
        if (state[j] == 0) {
          free_cols[k++] = j;
          mask |= std::size_t{1} << j;
        }
      }
      if (k > m) continue;
      if (k > 0) {
        std::optional<linalg::QR>& qr = qr_of[mask];
        if (!factored[mask]) {
          factored[mask] = true;
          linalg::Matrix a(m, k);
          for (std::size_t i = 0; i < m; ++i)
            for (std::size_t f = 0; f < k; ++f)
              a(i, f) = cols_[free_cols[f]][i] / norms_[free_cols[f]];
          qr.emplace(a);
          if (!(qr->min_abs_diag_r() > kRankTolerance)) qr.reset();
        }
        if (!qr) continue;
        for (std::size_t i = 0; i < m; ++i) {
          rhs[i] = samples_[i].seconds;
          for (std::size_t j = 0; j < 3; ++j)
            if (state[j] == 2) rhs[i] -= theta[j] * cols_[j][i];
        }
        const linalg::Vector x = qr->solve(rhs);
        bool feasible = true;
        for (std::size_t f = 0; f < k; ++f) {
          const std::size_t j = free_cols[f];
          theta[j] = x[f] / norms_[j];
          feasible = feasible && theta[j] >= 0.0 && theta[j] <= hi_[j];
        }
        if (!feasible) continue;
      }
      double sse = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const double r = samples_[i].seconds - theta[0] * cols_[0][i] -
                         theta[1] * cols_[1][i] - theta[2] * cols_[2][i];
        sse += r * r;
      }
      if (sse < best.sse) best = {Model{theta[0], theta[1], c, theta[2]}, sse};
    }
    return best;
  }

 private:
  const SampleSet& samples_;
  std::array<double, 3> hi_;
  std::array<linalg::Vector, 3> cols_;  ///< 1/n, n^c and 1 per sample
  std::array<double, 3> norms_;
};

/// The SSE, R² and RMSE of `model` over the samples.
FitResult score(const SampleSet& samples, const Model& model) {
  FitResult out;
  out.model = model;
  std::vector<double> observed, predicted;
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
  Candidate best;
  std::size_t best_k = 0;
  for (std::size_t k = 0; k < kGridPoints; ++k) {
    const Candidate cand = projection.at(grid_c(k));
    if (better(cand, best)) {
      best = cand;
      best_k = k;
    }
  }

  // Golden-section refinement between the best grid point's neighbours.
  const double g = (std::sqrt(5.0) - 1.0) / 2.0;
  double lo = grid_c(best_k == 0 ? 0 : best_k - 1);
  double hi = grid_c(std::min(best_k + 1, kGridPoints - 1));
  double x1 = hi - g * (hi - lo), x2 = lo + g * (hi - lo);
  Candidate f1 = projection.at(x1), f2 = projection.at(x2);
  for (const Candidate* f : {&f1, &f2})
    if (better(*f, best)) best = *f;
  while (hi - lo > kCTolerance) {
    if (f1.sse <= f2.sse) {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - g * (hi - lo);
      f1 = projection.at(x1);
      if (better(f1, best)) best = f1;
    } else {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + g * (hi - lo);
      f2 = projection.at(x2);
      if (better(f2, best)) best = f2;
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

#include "perf/fit.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "nlsq/multistart.hpp"

namespace hslb::perf {

namespace {

/// The nlsq least-squares problem plus the multistart sampling box, built
/// once and shared between the cold multistart fit and the warm refit. The
/// returned lambdas reference `samples`, which must outlive the problem.
struct FitProblem {
  nlsq::Problem problem;
  linalg::Vector start_lo, start_hi;
};

/// For each sample, the index of the first sample with the same node count
/// (itself for a first appearance). Gather repetitions and replicated
/// observations share node counts, so the model is evaluated once per
/// distinct count and copied to the rest.
std::vector<std::size_t> first_of_node_count(const SampleSet& samples) {
  std::vector<std::size_t> first(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::size_t j = 0;
    while (samples[j].nodes != samples[i].nodes) ++j;
    first[i] = j;
  }
  return first;
}

Model as_model(std::span<const double> p) {
  return Model{p[0], p[1], p[2], p[3]};
}

/// Validates the sample set and builds the problem over (a, b, c, d).
FitProblem build_problem(const SampleSet& samples, const FitOptions& options) {
  HSLB_EXPECTS(samples.size() >= 2);
  std::set<double> distinct;
  double max_y = 0.0, min_y = samples.front().seconds;
  double max_an = 0.0;  // bound for the scalable coefficient a
  for (const auto& s : samples) {
    HSLB_EXPECTS(s.nodes >= 1.0);
    HSLB_EXPECTS(s.seconds > 0.0);
    distinct.insert(s.nodes);
    max_y = std::max(max_y, s.seconds);
    min_y = std::min(min_y, s.seconds);
    max_an = std::max(max_an, s.seconds * s.nodes);
  }
  HSLB_EXPECTS(distinct.size() >= 2);

  FitProblem fp;
  nlsq::Problem& problem = fp.problem;
  problem.num_params = 4;
  problem.num_residuals = samples.size();
  // Both callbacks evaluate the model once per distinct node count, in
  // first-appearance order.
  const std::vector<std::size_t> first = first_of_node_count(samples);
  problem.residuals = [&samples, first](std::span<const double> p,
                                        std::span<double> r) {
    const Model m = as_model(p);
    for (std::size_t i = 0; i < samples.size(); ++i)
      if (first[i] == i) r[i] = m.eval(samples[i].nodes);
    // r[first[i]] holds the model value at sample i's node count until its
    // own residual is formed; first[i] <= i, so a backward sweep forms that
    // one last.
    for (std::size_t i = samples.size(); i-- > 0;)
      r[i] = samples[i].seconds - r[first[i]];
  };
  problem.jacobian = [&samples, first](std::span<const double> p,
                                       linalg::Matrix& jac) {
    const Model m = as_model(p);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto row = jac.row(i);
      if (first[i] != i) {
        const auto src = jac.row(first[i]);
        std::copy(src.begin(), src.end(), row.begin());
        continue;
      }
      const auto g = m.grad_params(samples[i].nodes);
      for (std::size_t j = 0; j < 4; ++j) row[j] = -g[j];
    }
  };

  // Positivity constraints (Table II, line 11) and the convexity-preserving
  // exponent window; the start box lies strictly inside the positive orthant.
  const double a_hi = options.a_scale * max_an;
  const double d_hi = options.d_scale * min_y;
  const double b_hi = std::max(max_y, 1.0);
  problem.lower = {0.0, 0.0, options.min_c, 0.0};
  problem.upper = {a_hi, b_hi, options.max_c, d_hi};
  fp.start_lo = {1e-6 * std::max(max_an, 1.0), 1e-12, options.min_c,
                 1e-9 * std::max(min_y, 1e-3)};
  fp.start_hi = {a_hi, 1e-2 * b_hi, options.max_c, std::max(d_hi, 2e-9)};
  // Sub-nanosecond samples put those floors above the fit box (the a floor
  // exceeds a_hi once max(seconds * nodes) < 2e-8), which would leave an
  // empty start box; clamp it into the fit box. This is a no-op for every
  // sample set whose seconds are all at least 1e-9 and that has such a
  // product of at least 2e-8.
  for (std::size_t i = 0; i < 4; ++i) {
    const auto clamp = [&](double v) {
      return std::min(std::max(v, problem.lower[i]), problem.upper[i]);
    };
    fp.start_lo[i] = clamp(fp.start_lo[i]);
    fp.start_hi[i] = clamp(fp.start_hi[i]);
  }
  return fp;
}

/// Fills the goodness-of-fit fields (R², RMSE) from `out.model`.
void score(const SampleSet& samples, FitResult& out) {
  std::vector<double> observed, predicted;
  for (const auto& s : samples) {
    observed.push_back(s.seconds);
    predicted.push_back(out.model.eval(s.nodes));
  }
  out.r2 = stats::r_squared(observed, predicted);
  out.rmse = stats::rmse(observed, predicted);
}

FitResult fit_multistart(const SampleSet& samples, const FitProblem& fp,
                         const FitOptions& options) {
  nlsq::MultistartOptions ms;
  ms.num_starts = options.num_starts;
  ms.seed = options.seed;
  const auto res =
      nlsq::minimize_multistart(fp.problem, fp.start_lo, fp.start_hi, ms);

  FitResult out;
  out.model = as_model(res.best.params);
  out.sse = res.best.cost;
  out.starts_tried = res.starts_tried;
  out.starts_converged = res.starts_converged;
  out.converged = res.best.converged;
  score(samples, out);
  return out;
}

}  // namespace

FitResult fit(const SampleSet& samples, const FitOptions& options) {
  return fit_multistart(samples, build_problem(samples, options), options);
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

FitResult refit(const SampleSet& samples, const Model& previous,
                const FitOptions& options) {
  const FitProblem fp = build_problem(samples, options);
  const double warm[] = {previous.a, previous.b, previous.c, previous.d};
  const auto res = nlsq::minimize(fp.problem, warm);
  if (!res.converged) return fit_multistart(samples, fp, options);

  FitResult out;
  out.model = as_model(res.params);
  out.sse = res.cost;
  out.starts_tried = 1;
  out.starts_converged = 1;
  out.converged = true;
  score(samples, out);
  return out;
}

}  // namespace hslb::perf

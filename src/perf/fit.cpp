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

CostModel bind_params(const CostModelSpec& spec, std::span<const double> p) {
  CostModel cm;
  std::size_t off = 0;
  for (const auto& term : spec) {
    const std::size_t k = term->num_params();
    cm.add(term, std::vector<double>(p.begin() + off, p.begin() + off + k));
    off += k;
  }
  return cm;
}

/// Validates the sample set and derives the data-driven fit scales.
FitScales make_scales(const SampleSet& samples, const FitOptions& options) {
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
  return FitScales{options.min_c, options.max_c, options.a_scale,
                   options.d_scale, max_y,       min_y,
                   max_an};
}

/// The nlsq least-squares problem plus the multistart sampling box, built
/// once and shared between the cold multistart fit and the warm refit. The
/// returned lambdas reference `samples`/`spec`, which must outlive the
/// problem.
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

FitProblem build_problem(const SampleSet& samples, const CostModelSpec& spec,
                         const FitScales& scales, std::size_t num_params) {
  FitProblem fp;
  nlsq::Problem& problem = fp.problem;
  problem.num_params = num_params;
  problem.num_residuals = samples.size();
  // Both callbacks evaluate the terms on their slices of p in spec order —
  // the float operations of CostModel::eval and of the term gradients — once
  // per distinct node count, in first-appearance order.
  const std::vector<std::size_t> first = first_of_node_count(samples);
  problem.residuals = [&samples, &spec, first](std::span<const double> p,
                                               std::span<double> r) {
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (first[i] != i) continue;
      double v = 0.0;
      std::size_t off = 0;
      for (const auto& term : spec) {
        const std::size_t k = term->num_params();
        v += term->eval(p.subspan(off, k), samples[i].nodes);
        off += k;
      }
      r[i] = v;
    }
    // r[first[i]] holds the model value at sample i's node count until its
    // own residual is formed; first[i] <= i, so a backward sweep forms that
    // one last.
    for (std::size_t i = samples.size(); i-- > 0;)
      r[i] = samples[i].seconds - r[first[i]];
  };
  problem.jacobian = [&samples, &spec, first](std::span<const double> p,
                                              linalg::Matrix& jac) {
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto row = jac.row(i);
      if (first[i] != i) {
        const auto src = jac.row(first[i]);
        std::copy(src.begin(), src.end(), row.begin());
        continue;
      }
      std::size_t off = 0;
      for (const auto& term : spec) {
        const std::size_t k = term->num_params();
        if (k > 0) {
          term->grad_params(p.subspan(off, k), samples[i].nodes,
                            row.subspan(off, k));
        }
        off += k;
      }
      for (double& v : row) v = -v;
    }
  };

  // Positivity constraints (Table II, line 11) and each term's own bound
  // windows, concatenated in spec order.
  problem.lower = linalg::Vector(num_params);
  problem.upper = linalg::Vector(num_params);
  fp.start_lo = linalg::Vector(num_params);
  fp.start_hi = linalg::Vector(num_params);
  std::size_t off = 0;
  for (const auto& term : spec) {
    const std::size_t k = term->num_params();
    if (k > 0) {
      term->fit_bounds(scales,
                       std::span<double>(problem.lower).subspan(off, k),
                       std::span<double>(problem.upper).subspan(off, k));
      term->start_box(scales, std::span<double>(fp.start_lo).subspan(off, k),
                      std::span<double>(fp.start_hi).subspan(off, k));
    }
    off += k;
  }
  return fp;
}

/// Fills the derived fields (power-law view, R², RMSE) from `out.cost`.
void score(const SampleSet& samples, FitResult& out) {
  out.model = out.cost.power_law().value_or(Model{0.0, 0.0, 1.0, 0.0});
  std::vector<double> observed, predicted;
  for (const auto& s : samples) {
    observed.push_back(s.seconds);
    predicted.push_back(out.cost.eval(s.nodes));
  }
  out.r2 = stats::r_squared(observed, predicted);
  out.rmse = stats::rmse(observed, predicted);
}

}  // namespace

FitResult fit_cost(const SampleSet& samples, const CostModelSpec& spec,
                   const FitOptions& options) {
  HSLB_EXPECTS(!spec.empty());
  const FitScales scales = make_scales(samples, options);

  std::size_t num_params = 0;
  for (const auto& term : spec) num_params += term->num_params();

  FitResult out;
  if (num_params == 0) {
    // Every term pinned — nothing to optimize, just score the model.
    out.cost = bind_params(spec, {});
    out.converged = true;
    for (const auto& s : samples) {
      const double r = s.seconds - out.cost.eval(s.nodes);
      out.sse += r * r;
    }
  } else {
    const FitProblem fp = build_problem(samples, spec, scales, num_params);

    nlsq::MultistartOptions ms;
    ms.num_starts = options.num_starts;
    ms.seed = options.seed;
    const auto res =
        nlsq::minimize_multistart(fp.problem, fp.start_lo, fp.start_hi, ms);

    out.cost = bind_params(spec, res.best.params);
    out.sse = res.best.cost;
    out.starts_tried = res.starts_tried;
    out.starts_converged = res.starts_converged;
    out.converged = res.best.converged;
  }

  score(samples, out);
  return out;
}

FitResult fit(const SampleSet& samples, const FitOptions& options) {
  return fit_cost(samples, {power_law_term()}, options);
}

std::vector<std::pair<std::string, FitResult>> fit_all(
    const BenchTable& table, const FitOptions& options, ThreadPool* pool,
    const CostModelSpec& spec) {
  static const CostModelSpec classic{power_law_term()};
  const CostModelSpec& use = spec.empty() ? classic : spec;
  std::vector<std::pair<std::string, FitResult>> out(table.tasks.size());
  const auto fit_one = [&](std::size_t i) {
    const auto& t = table.tasks[i];
    out[i] = {t.task, fit_cost(t.samples, use, options)};
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

double prediction_drift(const CostModel& model,
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

FitResult refit_cost(const SampleSet& samples, const CostModelSpec& spec,
                     const FitResult& previous, const FitOptions& options) {
  HSLB_EXPECTS(!spec.empty());
  HSLB_EXPECTS(previous.cost.num_terms() == spec.size());

  std::size_t num_params = 0;
  for (const auto& term : spec) num_params += term->num_params();
  if (num_params == 0) return fit_cost(samples, spec, options);

  // Previous parameters concatenated in spec order — the warm start.
  std::vector<double> warm;
  warm.reserve(num_params);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const auto p = previous.cost.params(i);
    HSLB_EXPECTS(p.size() == spec[i]->num_params());
    warm.insert(warm.end(), p.begin(), p.end());
  }

  const FitScales scales = make_scales(samples, options);
  const FitProblem fp = build_problem(samples, spec, scales, num_params);
  const auto res = nlsq::minimize(fp.problem, warm);
  if (!res.converged) return fit_cost(samples, spec, options);

  FitResult out;
  out.cost = bind_params(spec, res.params);
  out.sse = res.cost;
  out.starts_tried = 1;
  out.starts_converged = 1;
  out.converged = true;
  score(samples, out);
  return out;
}

}  // namespace hslb::perf

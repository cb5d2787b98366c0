#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "fmo/cost.hpp"
#include "fmo/driver.hpp"
#include "fmo/scenario.hpp"
#include "hslb/budget.hpp"
#include "sim/machine.hpp"

namespace hslb::service {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Percent imbalance lambda = (max node busy / mean over ALL nodes - 1) x
/// 100, predicted from the model times: every node of task f's group is
/// busy for T_f seconds, and the mean includes the budget's idle nodes.
double predicted_percent_imbalance(std::span<const double> times,
                                   std::span<const long long> nodes,
                                   long long budget) {
  HSLB_EXPECTS(times.size() == nodes.size());
  double busy = 0.0, worst = 0.0;
  for (std::size_t f = 0; f < times.size(); ++f) {
    busy += times[f] * static_cast<double>(nodes[f]);
    worst = std::max(worst, times[f]);
  }
  const double mean = busy / static_cast<double>(budget);
  if (mean <= 0.0) return 0.0;
  return (worst / mean - 1.0) * 100.0;
}

}  // namespace

double ServiceReport::percentile(double q) const {
  if (latencies.empty()) return 0.0;
  std::vector<double> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

double ServiceReport::requests_per_second() const {
  return wall_seconds > 0.0 ? static_cast<double>(requests) / wall_seconds
                            : 0.0;
}

double ServiceReport::hit_rate() const {
  return requests > 0 ? static_cast<double>(hits) /
                            static_cast<double>(requests)
                      : 0.0;
}

std::string ServiceReport::str() const {
  std::string out = strings::format(
      "service report — %zu requests in %.3f s (%.1f req/s)\n", requests,
      wall_seconds, requests_per_second());
  out += strings::format(
      "  cache    %zu hits / %zu misses (hit rate %.1f%%), %zu evictions\n",
      hits, misses, 100.0 * hit_rate(), evictions);
  out += strings::format(
      "  solves   %zu warm (%zu B&B nodes) / %zu cold (%zu B&B nodes), "
      "%zu audit fallback%s\n",
      warm_solves, warm_bnb_nodes, cold_solves, cold_bnb_nodes,
      audit_fallbacks, audit_fallbacks == 1 ? "" : "s");
  out += strings::format("  latency  p50 %.6f s, p99 %.6f s\n", p50_latency(),
                         p99_latency());
  return out;
}

AllocationService::AllocationService(ServiceOptions options)
    : opt_(options), pool_(options.threads), cache_(options.cache_capacity) {
  HSLB_EXPECTS(opt_.batch >= 1);
}

Response AllocationService::handle(const Request& request) {
  return run_script({request}).front();
}

AllocationService::Solved AllocationService::solve_kind_solve(
    const Request& canonical, const CacheEntry* donor) const {
  std::vector<BudgetTask> tasks;
  tasks.reserve(canonical.tasks.size());
  for (const auto& t : canonical.tasks) {
    tasks.push_back(BudgetTask{t.name, perf::Model{t.a, t.b, t.c, t.d},
                               t.min_nodes, t.max_nodes});
  }

  Solved out;
  Response& resp = out.response;
  std::vector<long long> nodes(tasks.size());

  if (canonical.objective == Objective::MaxMin) {
    // No MINLP encoding for max-min — exact greedy, never warm-seeded.
    resp.allocation = solve_budget(tasks, canonical.budget, canonical.objective);
    resp.status = to_string(canonical.objective) + " exact greedy";
  } else {
    const auto model =
        build_budget_minlp(tasks, canonical.budget, canonical.objective);
    minlp::BnbOptions bnb_opt = opt_.bnb;
    if (donor != nullptr)
      seed_bnb_options(bnb_opt, tasks, canonical.objective, donor->seed);
    const auto bnb = minlp::solve(model, bnb_opt);
    resp.status = minlp::to_string(bnb.status);
    resp.bnb_nodes = bnb.nodes;
    resp.bnb_cuts = bnb.cuts;
    resp.warm_seeded = bnb.seed_accepted;
    if (!bnb.has_solution) return out;  // fails the audit; no allocation
    resp.allocation =
        allocation_from_minlp(tasks, bnb.x, canonical.objective);
    out.seed.x = bnb.x;
    out.seed.cuts = bnb.pool_cuts;
    out.seed.models = task_models(tasks);
  }

  for (std::size_t f = 0; f < tasks.size(); ++f)
    nodes[f] = resp.allocation.find(tasks[f].name).nodes;
  std::vector<double> times(tasks.size());
  for (std::size_t f = 0; f < tasks.size(); ++f)
    times[f] = resp.allocation.find(tasks[f].name).predicted_seconds;
  resp.objective_value =
      evaluate_objective(tasks, nodes, canonical.objective);
  resp.predicted_total = resp.objective_value;
  resp.percent_imbalance =
      predicted_percent_imbalance(times, nodes, canonical.budget);
  out.seed.nodes_by_task = nodes;
  return out;
}

AllocationService::Solved AllocationService::solve_kind_fmo(
    const Request& canonical, const CacheEntry* donor) const {
  fmo::PipelineOptions popt;
  popt.fit_points = static_cast<std::size_t>(canonical.fit_points);
  popt.repetitions = static_cast<std::size_t>(canonical.repetitions);
  popt.bench_noise_cv = canonical.noise_cv;
  popt.seed = canonical.bench_seed;
  popt.objective = canonical.objective;
  // Warm seeding lives in the MINLP path, so the service always routes the
  // Solve step through branch-and-bound.
  popt.solve_with_minlp = true;
  popt.bnb = opt_.bnb;
  // Inner stages stay serial: batch-level parallelism owns the pool.
  popt.threads = 1;
  if (std::isfinite(canonical.link_gb) || std::isfinite(canonical.mem_gb)) {
    sim::Machine m = sim::Machine::intrepid_partition(
        static_cast<std::size_t>(canonical.budget));
    m.link_gb_per_s = canonical.link_gb;
    m.memory_gb_per_node = canonical.mem_gb;
    m.page_s_per_gb = canonical.page_s_per_gb;
    popt.run.machine = m;
  }
  if (donor != nullptr) popt.solve_seed = donor->seed;

  const fmo::System sys = fmo::make_system(
      canonical.family, static_cast<std::size_t>(canonical.fragments),
      canonical.system_seed);
  const fmo::CostModel cost;
  const auto res = fmo::run_pipeline(sys, cost, canonical.budget, popt);

  Solved out;
  Response& resp = out.response;
  resp.allocation = res.allocation;
  resp.status = res.report.solver.status;
  resp.bnb_nodes = res.report.solver.nodes;
  resp.bnb_cuts = res.report.solver.cuts;
  resp.warm_seeded = res.seed_accepted;
  resp.predicted_total = res.predicted_scc_seconds;
  resp.actual_total = res.hslb.scc_seconds;
  resp.percent_imbalance = res.report.exec.percent_imbalance;
  std::vector<double> times;
  times.reserve(res.allocation.tasks.size());
  for (const auto& t : res.allocation.tasks) times.push_back(t.predicted_seconds);
  resp.objective_value = fold_objective(canonical.objective, times);
  out.seed = res.solve_export;
  return out;
}

AllocationService::Solved AllocationService::solve_request(
    const Request& canonical, std::uint64_t sig,
    const CacheEntry* donor) const {
  Solved out = canonical.kind == RequestKind::Solve
                   ? solve_kind_solve(canonical, donor)
                   : solve_kind_fmo(canonical, donor);
  out.response.signature = sig;
  out.response.donor_signature = donor != nullptr ? donor->signature : 0;
  return out;
}

bool AllocationService::audit(const Request& canonical,
                              const Response& resp) const {
  if (resp.status == "infeasible") return false;
  if (resp.allocation.tasks.empty()) return false;
  long long total = 0;
  for (const auto& t : resp.allocation.tasks) {
    if (t.nodes < 1) return false;
    if (!std::isfinite(t.predicted_seconds) || t.predicted_seconds < 0.0)
      return false;
    total += t.nodes;
  }
  if (total > canonical.budget) return false;
  if (canonical.kind == RequestKind::Solve) {
    if (resp.allocation.tasks.size() != canonical.tasks.size()) return false;
    for (const auto& spec : canonical.tasks) {
      if (!resp.allocation.contains(spec.name)) return false;
      const long long n = resp.allocation.find(spec.name).nodes;
      if (n < spec.min_nodes || n > spec.max_nodes) return false;
    }
  } else {
    if (resp.allocation.tasks.size() !=
        static_cast<std::size_t>(canonical.fragments))
      return false;
  }
  return std::isfinite(resp.predicted_total) &&
         std::isfinite(resp.objective_value);
}

std::vector<Response> AllocationService::run_script(
    const std::vector<Request>& script) {
  const auto t_run = std::chrono::steady_clock::now();
  std::vector<Response> out(script.size());

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct Pending {
    std::size_t index = 0;  ///< script index of the solving request
    Request canonical;
    std::uint64_t sig = 0;
    const CacheEntry* donor = nullptr;
    Solved solved;
    double solve_seconds = 0.0;
  };

  for (std::size_t begin = 0; begin < script.size(); begin += opt_.batch) {
    const std::size_t end = std::min(begin + opt_.batch, script.size());

    // -- Phase 1: classify (sequential, against the batch-start cache) ------
    // per-request: kNone = cache hit; otherwise index into `work` (either
    // its own solve or an earlier duplicate's).
    std::vector<std::size_t> route(end - begin, kNone);
    std::vector<Pending> work;
    for (std::size_t i = begin; i < end; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const Request canonical = canonicalize(script[i]);
      const std::uint64_t sig = signature(canonical);
      if (const CacheEntry* e = cache_.find(sig)) {
        out[i] = e->response;  // payload verbatim: byte-identical contract
        out[i].cache_hit = true;
        out[i].latency_seconds = seconds_since(t0);
        continue;
      }
      std::size_t alias = kNone;
      for (std::size_t w = 0; w < work.size(); ++w) {
        if (work[w].sig == sig) {
          alias = w;
          break;
        }
      }
      if (alias != kNone) {
        route[i - begin] = alias;
        continue;
      }
      Pending p;
      p.index = i;
      p.canonical = std::move(canonical);
      p.sig = sig;
      if (opt_.warm_start) p.donor = cache_.nearest(p.canonical);
      route[i - begin] = work.size();
      work.push_back(std::move(p));
    }

    // -- Phase 2: solve unique misses (parallel) ----------------------------
    pool_.parallel_for(work.size(), [&](std::size_t w) {
      const auto t0 = std::chrono::steady_clock::now();
      work[w].solved =
          solve_request(work[w].canonical, work[w].sig, work[w].donor);
      work[w].solve_seconds = seconds_since(t0);
    });

    // -- Phase 3: commit (sequential, script order) -------------------------
    for (std::size_t i = begin; i < end; ++i) {
      ++report_.requests;
      if (route[i - begin] == kNone) {  // cache hit
        ++report_.hits;
        report_.latencies.push_back(out[i].latency_seconds);
        cache_.touch(out[i].signature);
        continue;
      }
      Pending& p = work[route[i - begin]];
      if (p.index == i) {  // this request ran the solve
        const auto t0 = std::chrono::steady_clock::now();
        if (!audit(p.canonical, p.solved.response)) {
          // Warm result failed the feasibility audit: strip the seeds and
          // re-solve cold. A cold failure too is reported as-is (the
          // instance itself is infeasible, not the seeding).
          p.solved = solve_request(p.canonical, p.sig, nullptr);
          p.solved.response.audit_fallback = true;
          ++report_.audit_fallbacks;
        }
        p.solve_seconds += seconds_since(t0);
        ++report_.misses;
        if (p.solved.response.warm_seeded) {
          ++report_.warm_solves;
          report_.warm_bnb_nodes += p.solved.response.bnb_nodes;
        } else {
          ++report_.cold_solves;
          report_.cold_bnb_nodes += p.solved.response.bnb_nodes;
        }
        out[i] = p.solved.response;
        out[i].latency_seconds = p.solve_seconds;
        report_.latencies.push_back(out[i].latency_seconds);
        CacheEntry entry;
        entry.request = p.canonical;
        entry.signature = p.sig;
        entry.response = p.solved.response;  // payload (metadata is zeroed
        entry.response.cache_hit = false;    //  below for byte-identity)
        entry.response.latency_seconds = 0.0;
        entry.seed = p.solved.seed;
        cache_.insert(std::move(entry));
      } else {  // duplicate of an earlier in-batch request: counts as a hit
        ++report_.hits;
        out[i] = p.solved.response;
        out[i].cache_hit = true;
        out[i].latency_seconds = 0.0;
        report_.latencies.push_back(0.0);
        cache_.touch(p.sig);
      }
    }
  }

  report_.evictions = cache_.evictions();
  report_.wall_seconds += seconds_since(t_run);
  return out;
}

}  // namespace hslb::service

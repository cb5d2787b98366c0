// Allocation-service acceptance bench: the value proposition of running
// HSLB as a long-lived service instead of a one-shot solve.
//
// Four experiments, three of them gated so CI smoke enforces the service
// contracts:
//
//   * exact-repeat cache hits — one full-pipeline fmo solve, then a stream
//     of identical requests. GATES: every repeat hits the cache with a
//     byte-identical payload, and the mean hit latency is at least 10x
//     below the cold-solve latency;
//   * cross-instance warm starts — a perturbed-repeat solve-kind family
//     (the same 16 power laws, growing node budget) solved by a warm
//     service seeding each miss from its nearest cached neighbor, next to
//     a cold service solving every instance from scratch. Solve-kind
//     misses run the greedy-seeded branch-and-bound (fmo-kind ones are the
//     certified greedy, with no tree to warm), and heuristic dives are off
//     on both sides, so the measured pruning comes from the seeds. GATES:
//     every warm solve matches the cold objective exactly, and the family's
//     warm-seeded solves search fewer total B&B nodes than the cold ones;
//   * throughput — a mixed 32-request solve-kind stream on 4 worker
//     threads: requests/sec, p50/p99 latency, hit rate, and the mean
//     percent imbalance (lambda, arXiv:2104.01688) of the returned
//     allocations;
//   * replay determinism — the same stream under --threads 1/2/4. GATE:
//     response payloads and the hit/miss sequence are identical.
//
// Headline numbers merge into BENCH_solver.json under "server/...".
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "common/table.hpp"
#include "service/service.hpp"

namespace {

using namespace hslb;

constexpr const char* kJsonPath = "BENCH_solver.json";

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

service::Request fmo_request(long long budget, long long fragments) {
  service::Request r;
  r.kind = service::RequestKind::Fmo;
  r.budget = budget;
  r.fragments = fragments;
  return r;
}

service::SolveTaskSpec task(std::string name, double a, double b, double c,
                            double d) {
  service::SolveTaskSpec t;
  t.name = std::move(name);
  t.a = a;
  t.b = b;
  t.c = c;
  t.d = d;
  return t;
}

service::Request solve_request(long long budget, double scale) {
  service::Request r;
  r.kind = service::RequestKind::Solve;
  r.budget = budget;
  r.tasks = {task("atm", 400.0 * scale, 3.0, 1.0, 2.0),
             task("ocn", 250.0 * scale, 2.0, 1.0, 1.0),
             task("ice", 120.0 * scale, 1.0, 1.0, 0.5)};
  return r;
}

/// The warm-start family's instance: 16 convex power laws (c = 1), the
/// same at every budget, so a donor's cut pool carries over verbatim.
service::Request family_request(long long budget) {
  service::Request r;
  r.kind = service::RequestKind::Solve;
  r.budget = budget;
  for (int i = 0; i < 16; ++i) {
    r.tasks.push_back(task("f" + std::to_string(10 + i),
                           60.0 * (1 + i % 7) + 9.0 * i, 0.02 * (1 + i % 3),
                           1.0, 0.1 * (i % 4)));
  }
  return r;
}

}  // namespace

int main() {
  int failures = 0;

  // --- Exact-repeat cache hits: the 10x latency gate. ---------------------
  {
    constexpr std::size_t kRepeats = 20;
    service::ServiceOptions opt;
    opt.batch = 1;  // every repeat is a true cross-batch cache hit
    service::AllocationService srv(opt);
    std::vector<service::Request> script(1 + kRepeats, fmo_request(64, 16));
    const auto out = srv.run_script(script);
    const auto& lat = srv.report().latencies;
    const double cold_s = lat.front();
    double hit_s = 0.0;
    bool identical = true;
    for (std::size_t i = 1; i < out.size(); ++i) {
      hit_s += lat[i];
      identical = identical && out[i].cache_hit &&
                  out[i].to_line() == out[0].to_line();
    }
    hit_s /= static_cast<double>(kRepeats);
    const double speedup = hit_s > 0.0 ? cold_s / hit_s : 1e9;
    std::printf("exact repeat: cold solve %.6fs, mean hit %.9fs -> %.0fx "
                "(%zu repeats, byte-identical: %s)\n",
                cold_s, hit_s, speedup, kRepeats, identical ? "yes" : "NO");
    bench::merge_json(kJsonPath, "server/exact_repeat",
                      {{"cold_latency_s", cold_s},
                       {"hit_latency_s", hit_s},
                       {"speedup", speedup},
                       {"byte_identical", identical ? 1.0 : 0.0}});
    if (!identical || !(speedup >= 10.0)) {
      std::fprintf(stderr,
                   "FAIL: exact-repeat hits must be byte-identical and at "
                   "least 10x faster than the cold solve (got %.1fx)\n",
                   speedup);
      ++failures;
    }
  }

  // --- Cross-instance warm starts on a perturbed-repeat family. -----------
  // The same 16 models at a growing budget, so the donor's cut pool
  // transfers verbatim and only the budget row moves. Both services start
  // every miss from the exact greedy; the warm one also from the donor's
  // seed.
  {
    const std::vector<long long> budgets = {64, 68, 72, 76, 80};
    std::vector<service::Request> script;
    script.reserve(budgets.size());
    for (long long b : budgets) script.push_back(family_request(b));

    service::ServiceOptions warm_opt;
    warm_opt.batch = 1;
    service::AllocationService warm_srv(warm_opt);
    const auto warm = warm_srv.run_script(script);

    service::ServiceOptions cold_opt = warm_opt;
    cold_opt.warm_start = false;
    service::AllocationService cold_srv(cold_opt);
    const auto cold = cold_srv.run_script(script);

    Table t({"budget", "cold B&B nodes", "warm B&B nodes", "warm", "objective"});
    std::size_t cold_nodes = 0, warm_nodes = 0, warm_accepted = 0;
    bool objectives_match = true;
    for (std::size_t i = 1; i < script.size(); ++i) {  // i=0 is cold for both
      cold_nodes += cold[i].bnb_nodes;
      warm_nodes += warm[i].bnb_nodes;
      warm_accepted += warm[i].warm_seeded ? 1 : 0;
      objectives_match =
          objectives_match && close(warm[i].objective_value, cold[i].objective_value);
      t.add_row({Table::num(static_cast<long long>(budgets[i])),
                 Table::num(static_cast<double>(cold[i].bnb_nodes), 0),
                 Table::num(static_cast<double>(warm[i].bnb_nodes), 0),
                 warm[i].warm_seeded ? "yes" : "no",
                 Table::num(warm[i].objective_value, 6)});
    }
    std::printf("\nperturbed-repeat family (16 tasks, budget 64 -> 80):\n%s\n",
                t.str().c_str());
    bench::merge_json(
        kJsonPath, "server/warm_family",
        {{"cold_nodes", static_cast<double>(cold_nodes)},
         {"warm_nodes", static_cast<double>(warm_nodes)},
         {"node_ratio",
          cold_nodes > 0 ? static_cast<double>(warm_nodes) /
                               static_cast<double>(cold_nodes)
                         : 1.0},
         {"warm_accepted", static_cast<double>(warm_accepted)},
         {"objectives_match", objectives_match ? 1.0 : 0.0}});
    if (!objectives_match || !(warm_nodes < cold_nodes)) {
      std::fprintf(stderr,
                   "FAIL: warm-seeded solves must match the cold objectives "
                   "in fewer total B&B nodes (cold %zu, warm %zu)\n",
                   cold_nodes, warm_nodes);
      ++failures;
    }
  }

  // --- Throughput on a mixed stream. --------------------------------------
  // 32 solve-kind requests: 8 distinct instances cycled 4 times, so 3/4 of
  // the stream hits the cache once it is warm.
  std::vector<service::Request> stream;
  for (int round = 0; round < 4; ++round) {
    for (int k = 0; k < 8; ++k) {
      stream.push_back(
          solve_request(k % 2 == 0 ? 64 : 96, 1.0 + 0.03 * k));
    }
  }
  {
    service::ServiceOptions opt;
    opt.threads = 4;
    opt.batch = 8;
    service::AllocationService srv(opt);
    const auto out = srv.run_script(stream);
    const auto& rep = srv.report();
    double mean_lambda = 0.0;
    for (const auto& r : out) mean_lambda += r.percent_imbalance;
    mean_lambda /= static_cast<double>(out.size());
    std::printf("throughput: %zu requests in %.3fs -> %.1f req/s, hit rate "
                "%.1f%%, p50 %.6fs, p99 %.6fs, mean lambda %.2f%%\n",
                rep.requests, rep.wall_seconds, rep.requests_per_second(),
                100.0 * rep.hit_rate(), rep.p50_latency(), rep.p99_latency(),
                mean_lambda);
    bench::merge_json(kJsonPath, "server/throughput",
                      {{"requests", static_cast<double>(rep.requests)},
                       {"rps", rep.requests_per_second()},
                       {"p50_s", rep.p50_latency()},
                       {"p99_s", rep.p99_latency()},
                       {"hit_rate", rep.hit_rate()},
                       {"warm_solves", static_cast<double>(rep.warm_solves)},
                       {"cold_solves", static_cast<double>(rep.cold_solves)},
                       {"mean_lambda_pct", mean_lambda}});
    if (!(rep.requests_per_second() > 0.0) || rep.hits == 0) {
      std::fprintf(stderr, "FAIL: throughput run produced no hits or no "
                           "measurable rate\n");
      ++failures;
    }
  }

  // --- Replay determinism across thread counts. ---------------------------
  {
    std::vector<std::string> ref_lines;
    std::vector<char> ref_hits;
    bool deterministic = true;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      service::ServiceOptions opt;
      opt.threads = threads;
      opt.batch = 8;
      service::AllocationService srv(opt);
      const auto out = srv.run_script(stream);
      std::vector<std::string> lines;
      std::vector<char> hits;
      for (const auto& r : out) {
        lines.push_back(r.to_line());
        hits.push_back(r.cache_hit ? 1 : 0);
      }
      if (threads == 1) {
        ref_lines = lines;
        ref_hits = hits;
      } else {
        deterministic =
            deterministic && lines == ref_lines && hits == ref_hits;
      }
    }
    std::printf("replay under 1/2/4 threads: %s\n",
                deterministic ? "identical payloads and hit sequence"
                              : "DIVERGED");
    bench::merge_json(kJsonPath, "server/replay",
                      {{"deterministic", deterministic ? 1.0 : 0.0}});
    if (!deterministic) {
      std::fprintf(stderr,
                   "FAIL: replaying the stream under 1/2/4 threads must "
                   "yield identical payloads and cache-hit sequences\n");
      ++failures;
    }
  }

  if (failures == 0) std::printf("results merged into %s\n", kJsonPath);
  return failures == 0 ? 0 : 1;
}

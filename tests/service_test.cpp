// End-to-end tests of the AllocationService: the exact-repeat byte-identity
// contract, LRU re-solves, the 10-seed warm-vs-cold objective-equality
// sweep (warm seeding must accelerate, never change, the answer), the
// audit-fallback path, the thread-count determinism contract, and the
// percent-imbalance (lambda) reporting.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "minlp/cuts.hpp"
#include "service/protocol.hpp"

namespace hslb::service {
namespace {

SolveTaskSpec task(std::string name, double a, double b = 0.1, double c = 1.0,
                   double d = 0.01) {
  SolveTaskSpec t;
  t.name = std::move(name);
  t.a = a;
  t.b = b;
  t.c = c;
  t.d = d;
  return t;
}

/// A three-task instance shaped like fitted HSLB component models; `scale`
/// moves the whole family through parameter space.
std::vector<SolveTaskSpec> family_tasks(double scale) {
  return {task("atm", 400.0 * scale, 3.0, 1.0, 2.0),
          task("ocn", 250.0 * scale, 2.0, 1.0, 1.0),
          task("ice", 120.0 * scale, 1.0, 1.0, 0.5)};
}

Request solve_request(long long budget, std::vector<SolveTaskSpec> tasks,
                      Objective objective = Objective::MinMax) {
  Request r;
  r.kind = RequestKind::Solve;
  r.objective = objective;
  r.budget = budget;
  r.tasks = std::move(tasks);
  return r;
}

Request fmo_request(long long budget, long long fragments,
                    std::uint64_t bench_seed = 42) {
  Request r;
  r.kind = RequestKind::Fmo;
  r.budget = budget;
  r.fragments = fragments;
  r.bench_seed = bench_seed;
  r.fit_points = 4;
  return r;
}

TEST(AllocationService, ExactRepeatHitIsByteIdentical) {
  ServiceOptions opt;
  opt.batch = 1;  // force the repeat into a later batch: a true cache hit
  AllocationService srv(opt);
  const Request r = solve_request(64, family_tasks(1.0));
  const auto out = srv.run_script({r, r});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(out[0].cache_hit);
  EXPECT_TRUE(out[1].cache_hit);
  EXPECT_EQ(out[0].to_line(), out[1].to_line());
  EXPECT_EQ(srv.report().hits, 1u);
  EXPECT_EQ(srv.report().misses, 1u);
  EXPECT_EQ(srv.cache().size(), 1u);
}

TEST(AllocationService, InBatchDuplicateAliasesTheSameSolve) {
  ServiceOptions opt;
  opt.batch = 8;  // both land in one batch: the duplicate aliases, not solves
  AllocationService srv(opt);
  const Request r = solve_request(64, family_tasks(1.0));
  const auto out = srv.run_script({r, r});
  EXPECT_FALSE(out[0].cache_hit);
  EXPECT_TRUE(out[1].cache_hit);
  EXPECT_EQ(out[0].to_line(), out[1].to_line());
  EXPECT_EQ(srv.report().misses, 1u);
  EXPECT_EQ(srv.report().hits, 1u);
}

TEST(AllocationService, LruEvictionForcesResolve) {
  ServiceOptions opt;
  opt.batch = 1;
  opt.cache_capacity = 1;
  // Cold solves only: the re-solve after eviction must then be line-for-line
  // identical to the first solve (a warm start would legitimately differ in
  // its warm flag and cut count while agreeing on the allocation).
  opt.warm_start = false;
  AllocationService srv(opt);
  const Request r1 = solve_request(64, family_tasks(1.0));
  const Request r2 = solve_request(64, family_tasks(2.0));
  const auto out = srv.run_script({r1, r2, r1});
  // r2 evicted r1, so the third request solves again instead of hitting.
  EXPECT_FALSE(out[2].cache_hit);
  EXPECT_EQ(srv.report().misses, 3u);
  EXPECT_EQ(srv.report().hits, 0u);
  EXPECT_EQ(srv.report().evictions, 2u);
  EXPECT_EQ(out[0].to_line(), out[2].to_line());
}

TEST(AllocationService, WarmSeedingNeverChangesTheObjectiveTenSeeds) {
  std::size_t warm_total = 0;
  for (int seed = 0; seed < 10; ++seed) {
    const double scale = 1.0 + 0.05 * seed;
    const Request base = solve_request(64, family_tasks(scale));
    const Request perturbed = solve_request(64, family_tasks(scale * 1.02));

    ServiceOptions warm_opt;
    warm_opt.batch = 1;
    AllocationService warm(warm_opt);
    const auto warm_out = warm.run_script({base, perturbed});

    ServiceOptions cold_opt;
    cold_opt.batch = 1;
    cold_opt.warm_start = false;
    AllocationService cold(cold_opt);
    const auto cold_out = cold.run_script({base, perturbed});

    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_NEAR(warm_out[i].objective_value, cold_out[i].objective_value,
                  1e-9 * std::abs(cold_out[i].objective_value))
          << "seed " << seed << " request " << i;
    }
    // The perturbed request's donor is the base instance.
    EXPECT_EQ(warm_out[1].donor_signature, signature(canonicalize(base)))
        << "seed " << seed;
    warm_total += warm.report().warm_solves;
    EXPECT_EQ(cold.report().warm_solves, 0u);
  }
  // The donor incumbent must actually be accepted on most of the sweep
  // (same budget, clamped into identical boxes: always feasible).
  EXPECT_GT(warm_total, 5u);
}

TEST(AllocationService, AuditFailureFallsBackToColdSolve) {
  const Request target = solve_request(64, family_tasks(1.0));
  // Same task models at a different budget: comparable (finite distance),
  // different signature, and — crucially — identical flattened fit
  // parameters, so the doctored cut pool below is accepted verbatim.
  const Request donor_req = solve_request(60, family_tasks(1.0));

  AllocationService ref;
  ref.handle(donor_req);
  const CacheEntry* real = ref.cache().find(signature(canonicalize(donor_req)));
  ASSERT_NE(real, nullptr);

  CacheEntry doctored = *real;
  // No incumbent or point seeds — the poisoned cut must be the only thing
  // the warm solve inherits, so it cannot rescue itself.
  doctored.seed.nodes_by_task.clear();
  doctored.seed.x.clear();
  minlp::Cut poison;
  poison.coeffs = {{0, 1.0}};
  poison.rhs = -1e9;  // x0 <= -1e9: infeasible for every allocation
  poison.source_constraint = 0;
  doctored.seed.cuts = {poison};

  AllocationService srv;
  srv.insert_cache_entry(std::move(doctored));
  const Response resp = srv.handle(target);

  EXPECT_TRUE(resp.audit_fallback);
  EXPECT_FALSE(resp.warm_seeded);
  EXPECT_EQ(srv.report().audit_fallbacks, 1u);

  // The fallback re-solve is seed-free, so it matches a clean cold solve
  // exactly (the audit_fallback flag is the only allowed difference).
  ServiceOptions cold_opt;
  cold_opt.warm_start = false;
  AllocationService clean(cold_opt);
  const Response cold = clean.handle(target);
  EXPECT_EQ(resp.status, cold.status);
  EXPECT_EQ(resp.bnb_nodes, cold.bnb_nodes);
  EXPECT_DOUBLE_EQ(resp.objective_value, cold.objective_value);
  EXPECT_EQ(resp.allocation.str(), cold.allocation.str());
  EXPECT_FALSE(cold.audit_fallback);
}

TEST(AllocationService, ThreadCountNeverChangesPayloadsOrHitSequence) {
  // A script with repeats, perturbed neighbors, an objective change, and a
  // budget change — enough structure to exercise hits, aliases, and donor
  // selection. The determinism contract: payload lines and the hit/miss
  // sequence depend only on the script and the batch width.
  std::vector<Request> script;
  script.push_back(solve_request(64, family_tasks(1.0)));
  script.push_back(solve_request(64, family_tasks(1.02)));
  script.push_back(solve_request(64, family_tasks(1.0)));  // exact repeat
  script.push_back(solve_request(48, family_tasks(1.0)));  // budget change
  script.push_back(solve_request(64, family_tasks(1.05)));
  script.push_back(solve_request(64, family_tasks(1.02)));  // repeat
  script.push_back(solve_request(64, family_tasks(0.9), Objective::MinSum));
  script.push_back(solve_request(64, family_tasks(1.1)));
  script.push_back(solve_request(64, family_tasks(1.1)));  // in-batch dup
  script.push_back(solve_request(64, family_tasks(0.95)));

  std::vector<std::string> reference_lines;
  std::vector<bool> reference_hits;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ServiceOptions opt;
    opt.threads = threads;
    opt.batch = 4;
    AllocationService srv(opt);
    const auto out = srv.run_script(script);
    std::vector<std::string> lines;
    std::vector<bool> hits;
    for (const auto& r : out) {
      lines.push_back(r.to_line());
      hits.push_back(r.cache_hit);
    }
    if (threads == 1) {
      reference_lines = lines;
      reference_hits = hits;
      continue;
    }
    EXPECT_EQ(lines, reference_lines) << "threads=" << threads;
    EXPECT_EQ(hits, reference_hits) << "threads=" << threads;
  }
}

TEST(AllocationService, MaxMinRequestsUseExactGreedyAndNeverWarm) {
  ServiceOptions opt;
  opt.batch = 1;
  AllocationService srv(opt);
  const Request base =
      solve_request(64, family_tasks(1.0), Objective::MaxMin);
  const Request perturbed =
      solve_request(64, family_tasks(1.02), Objective::MaxMin);
  const auto out = srv.run_script({base, perturbed});
  for (const auto& r : out) {
    EXPECT_NE(r.status.find("exact greedy"), std::string::npos);
    EXPECT_FALSE(r.warm_seeded);
    EXPECT_EQ(r.bnb_nodes, 0u);
  }
  EXPECT_EQ(srv.report().warm_solves, 0u);
}

TEST(AllocationService, PercentImbalanceMatchesDefinition) {
  AllocationService srv;
  const Request r = solve_request(64, family_tasks(1.0));
  const Response resp = srv.handle(r);
  // lambda = (max node busy-time / mean over ALL budget nodes - 1) x 100,
  // recomputed from the returned allocation.
  double busy = 0.0, worst = 0.0;
  for (const auto& t : resp.allocation.tasks) {
    busy += t.predicted_seconds * static_cast<double>(t.nodes);
    worst = std::max(worst, t.predicted_seconds);
  }
  const double mean = busy / 64.0;
  EXPECT_NEAR(resp.percent_imbalance, (worst / mean - 1.0) * 100.0, 1e-9);
  EXPECT_GE(resp.percent_imbalance, 0.0);
}

TEST(AllocationService, FmoRequestsRunTheFullPipelineAndWarmStart) {
  ServiceOptions opt;
  opt.batch = 1;
  AllocationService srv(opt);
  const Request f1 = fmo_request(48, 6, 42);
  const Request f2 = fmo_request(48, 6, 43);  // perturbed: new noise stream
  const auto out = srv.run_script({f1, f1, f2});

  // Full pipeline ran: every fragment allocated, execution simulated.
  ASSERT_EQ(out[0].allocation.tasks.size(), 6u);
  EXPECT_GT(out[0].actual_total, 0.0);
  EXPECT_TRUE(std::isfinite(out[0].percent_imbalance));
  EXPECT_FALSE(out[0].status.empty());

  // Exact repeat: byte-identical payload from the cache.
  EXPECT_TRUE(out[1].cache_hit);
  EXPECT_EQ(out[0].to_line(), out[1].to_line());

  // The perturbed instance seeds from its neighbor and still agrees with a
  // cold solve on the final objective.
  EXPECT_FALSE(out[2].cache_hit);
  EXPECT_EQ(out[2].donor_signature, signature(canonicalize(f1)));
  EXPECT_TRUE(out[2].warm_seeded);

  ServiceOptions cold_opt;
  cold_opt.warm_start = false;
  AllocationService cold(cold_opt);
  const Response cold_f2 = cold.handle(f2);
  EXPECT_NEAR(out[2].objective_value, cold_f2.objective_value,
              1e-9 * std::abs(cold_f2.objective_value));

  // A donor whose machine charged link bandwidth solved a MINLP with comm
  // split variables; its cuts must not carry over to the same system on an
  // unmodeled machine, whose fits are identical but whose MINLP has no such
  // variables.
  const Request charged = parse_request(
      "fmo objective=min-max budget=96 family=comm fragments=12 "
      "system_seed=50 bench_seed=42 noise_cv=0.03 fit_points=5 reps=1 "
      "link_gb=0.425");
  Request plain = charged;
  plain.link_gb = std::numeric_limits<double>::infinity();
  AllocationService chain(opt);
  const auto pair = chain.run_script({charged, plain});
  EXPECT_EQ(pair[1].donor_signature, signature(canonicalize(charged)));
  const Response cold_plain = cold.handle(plain);
  EXPECT_NEAR(pair[1].objective_value, cold_plain.objective_value,
              1e-9 * std::abs(cold_plain.objective_value));
}

}  // namespace
}  // namespace hslb::service

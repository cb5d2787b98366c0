// End-to-end tests of the AllocationService: the exact-repeat byte-identity
// contract, LRU re-solves, the 10-seed warm-vs-cold objective-equality
// sweep (warm seeding must accelerate, never change, the answer), the
// audit-fallback path, the thread-count determinism contract, and the
// percent-imbalance (lambda) reporting.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
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
    EXPECT_EQ(r.donor_signature, 0u);  // no tree to seed
  }
  EXPECT_EQ(srv.report().warm_solves + srv.report().cold_solves, 0u);
  EXPECT_EQ(srv.report().greedy_solves, 2u);

  // An fmo max-min request runs its pipeline on the greedy too.
  Request fmo = fmo_request(48, 6, 42);
  fmo.objective = Objective::MaxMin;
  const Response r = srv.handle(fmo);
  EXPECT_EQ(r.status, "max-min exact greedy");
  EXPECT_EQ(r.allocation.tasks.size(), 6u);
  EXPECT_EQ(srv.report().greedy_solves, 3u);
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

TEST(AllocationService, FmoRequestsRunTheFullPipelineWithoutADonor) {
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

  // The perturbed instance's Solve is the certified greedy: no tree, so it
  // takes no donor (solve-kind requests, which branch, cover warm starts)
  // and counts apart from warm and cold B&B solves. It agrees with a cold
  // service on the final objective.
  EXPECT_FALSE(out[2].cache_hit);
  EXPECT_EQ(out[2].status, "optimal");
  EXPECT_EQ(out[2].donor_signature, 0u);
  EXPECT_FALSE(out[2].warm_seeded);
  EXPECT_EQ(out[2].bnb_nodes, 0u);
  EXPECT_EQ(srv.report().greedy_solves, 2u);
  EXPECT_EQ(srv.report().warm_solves + srv.report().cold_solves, 0u);

  ServiceOptions cold_opt;
  cold_opt.warm_start = false;
  AllocationService cold(cold_opt);
  const Response cold_f2 = cold.handle(f2);
  EXPECT_NEAR(out[2].objective_value, cold_f2.objective_value,
              1e-9 * std::abs(cold_f2.objective_value));
}

// Fmo-kind payloads, pinned verbatim: every family, a machine with a
// finite link, node memory and paging, repeated gather probes under
// min-sum, and max-min (the greedy alone). Captured from the service's
// earlier hand-built fmo pipeline; the substrate registry's fmo scenario
// must reproduce them byte for byte.
TEST(AllocationService, FmoPayloadsArePinned) {
  const auto request = [](std::string family) {
    Request r = fmo_request(48, 6);
    r.family = std::move(family);
    return r;
  };
  Request machine = request("comm");
  machine.link_gb = 1.0;
  machine.mem_gb = 1.0;
  machine.page_s_per_gb = 0.5;
  // Large enough that the dimer probes' repetitions move lambda.
  Request reps = fmo_request(112, 16, 18);
  reps.family = "peptide";
  reps.fit_points = 5;
  reps.repetitions = 2;
  reps.objective = Objective::MinSum;
  Request max_min = request("peptide");
  max_min.objective = Objective::MaxMin;
  const std::vector<Request> script{request("water"), request("peptide"),
                                    request("comm"),  machine,
                                    reps,             max_min};
  const std::vector<std::string> want{
      "sig=6395686c6c9cc540 status=optimal objective=0.36142618074284233 "
          "predicted=4.1142618074284236 actual=4.1733647106431988 "
          "lambda=9.3850103574182988 warm=0 fallback=0 bnb_nodes=0 "
          "bnb_cuts=0 "
          "alloc=w0(x2):7;w1(x3):25;w2(x1):1;w3(x2):7;w4(x1):1;w5(x2):7",
      "sig=5a0d06c385ab5c40 status=optimal objective=5.6247302037584745 "
          "predicted=56.747302037584745 actual=58.789874097067802 "
          "lambda=6.7770241912007867 warm=0 fallback=0 bnb_nodes=0 "
          "bnb_cuts=0 alloc=res0:1;res1:8;res2:15;res3:15;res4:8;res5:1",
      "sig=2da3d80b726517c8 status=optimal objective=0.36142618074284233 "
          "predicted=4.1142618074284236 actual=4.1733647106431988 "
          "lambda=7.1212711584738964 warm=0 fallback=0 bnb_nodes=0 "
          "bnb_cuts=0 "
          "alloc=w0(x2):7;w1(x3):25;w2(x1):1;w3(x2):7;w4(x1):1;w5(x2):7",
      "sig=102dbe4d76e4a565 status=optimal objective=1.6094216101555934 "
          "predicted=16.594216101555933 actual=16.549030937239209 "
          "lambda=133.12581247894744 warm=0 fallback=0 bnb_nodes=0 "
          "bnb_cuts=0 "
          "alloc=w0(x2):2;w1(x3):11;w2(x1):1;w3(x2):2;w4(x1):1;w5(x2):2",
      "sig=a6839720df696417 status=optimal objective=49.103653378453643 "
          "predicted=63.669193858966572 actual=63.387810189867373 "
          "lambda=40.505233159475381 warm=0 fallback=0 bnb_nodes=0 "
          "bnb_cuts=0 alloc=res0:2;res1:10;res2:14;res3:13;res4:10;res5:3;"
          "res6:3;res7:10;res8:9;res9:2;res10:9;res11:4;res12:6;res13:7;"
          "res14:2;res15:8",
      "sig=1a6cfc27e9e98480 status=max-min exact greedy "
          "objective=1.981217533441735 predicted=56.747302037584745 "
          "actual=58.789874097067802 lambda=6.7770241912007867 warm=0 "
          "fallback=0 bnb_nodes=0 bnb_cuts=0 "
          "alloc=res0:1;res1:8;res2:15;res3:15;res4:8;res5:1",
  };

  // One request per batch, then all six misses solving concurrently: an
  // fmo-kind miss takes no donor, so the batch width cannot move it.
  for (const auto& [threads, batch] : {std::pair{1, 1}, std::pair{4, 6}}) {
    ServiceOptions opt;
    opt.threads = static_cast<std::size_t>(threads);
    opt.batch = static_cast<std::size_t>(batch);
    AllocationService srv(opt);
    const auto out = srv.run_script(script);
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i].to_line(), want[i])
          << "request " << i << ", threads " << threads;
  }
}

}  // namespace
}  // namespace hslb::service

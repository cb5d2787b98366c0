// Protocol and cache contract tests of the allocation service: request
// canonicalization (the cache-key normalization), instance signatures,
// wire-format round-trips, and the LRU semantics the batched service's
// determinism contract leans on (find() does not touch recency; nearest()
// breaks ties toward the most recently used entry).
#include "service/cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "mutate.hpp"
#include "perf/model.hpp"
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

Request solve_request(long long budget, std::vector<SolveTaskSpec> tasks) {
  Request r;
  r.kind = RequestKind::Solve;
  r.budget = budget;
  r.tasks = std::move(tasks);
  return r;
}

Request fmo_request(long long budget, long long fragments,
                    std::string family = "water") {
  Request r;
  r.kind = RequestKind::Fmo;
  r.budget = budget;
  r.fragments = fragments;
  r.family = std::move(family);
  return r;
}

CacheEntry make_entry(const Request& raw) {
  CacheEntry e;
  e.request = canonicalize(raw);
  e.signature = signature(e.request);
  e.response.signature = e.signature;
  return e;
}

TEST(Canonicalize, SortsTasksAndResolvesDefaults) {
  const Request c =
      canonicalize(solve_request(32, {task("ocn", 2.0), task("atm", 1.0)}));
  ASSERT_EQ(c.tasks.size(), 2u);
  EXPECT_EQ(c.tasks[0].name, "atm");
  EXPECT_EQ(c.tasks[1].name, "ocn");
  // max_nodes 0 resolves to the budget; fmo-side fields are neutralized so
  // they cannot leak into a solve instance's identity.
  EXPECT_EQ(c.tasks[0].max_nodes, 32);
  EXPECT_TRUE(c.family.empty());
  EXPECT_EQ(c.fragments, 0);
}

TEST(Canonicalize, SignatureIsTaskOrderInvariant) {
  const auto a =
      signature(canonicalize(solve_request(32, {task("x", 1.0), task("y", 2.0)})));
  const auto b =
      signature(canonicalize(solve_request(32, {task("y", 2.0), task("x", 1.0)})));
  EXPECT_EQ(a, b);
}

TEST(Canonicalize, QuantizationAbsorbsSubToleranceNoise) {
  // 6 significant digits: 1e-10 relative noise canonicalizes identically,
  // a 1% change does not.
  const auto base = signature(canonicalize(solve_request(32, {task("x", 1.0)})));
  const auto noisy =
      signature(canonicalize(solve_request(32, {task("x", 1.0 + 1e-10)})));
  const auto moved =
      signature(canonicalize(solve_request(32, {task("x", 1.01)})));
  EXPECT_EQ(base, noisy);
  EXPECT_NE(base, moved);
}

TEST(Canonicalize, FamilyIsCaseInsensitive) {
  EXPECT_EQ(signature(canonicalize(fmo_request(48, 6, "Water"))),
            signature(canonicalize(fmo_request(48, 6, "water"))));
}

TEST(Canonicalize, RejectsMalformedRequests) {
  EXPECT_THROW(canonicalize(solve_request(32, {})), std::invalid_argument);
  EXPECT_THROW(canonicalize(solve_request(32, {task("x", 1.0), task("x", 2.0)})),
               std::invalid_argument);
  EXPECT_THROW(canonicalize(solve_request(32, {task("a:b", 1.0)})),
               std::invalid_argument);
  Request bad_bounds = solve_request(32, {task("x", 1.0)});
  bad_bounds.tasks[0].min_nodes = 8;
  bad_bounds.tasks[0].max_nodes = 4;
  EXPECT_THROW(canonicalize(bad_bounds), std::invalid_argument);
  Request starved = solve_request(4, {task("x", 1.0), task("y", 1.0)});
  starved.tasks[0].min_nodes = 3;
  starved.tasks[1].min_nodes = 3;
  EXPECT_THROW(canonicalize(starved), std::invalid_argument);
  EXPECT_THROW(canonicalize(fmo_request(48, 6, "granite")),
               std::invalid_argument);
  EXPECT_THROW(canonicalize(fmo_request(4, 6)), std::invalid_argument);
  // Task models must pass perf::Model::valid().
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& bad :
       {task("x", nan), task("x", -100.0), task("x", inf), task("x", 1.0, -0.1),
        task("x", 1.0, 0.1, nan), task("x", 1.0, 0.1, -inf),
        task("x", 1.0, 0.1, 1.0, -1.0), task("x", 1.0, 0.1, 1.0, inf)}) {
    EXPECT_THROW(canonicalize(solve_request(32, {bad, task("y", 1.0)})),
                 std::invalid_argument);
  }
  // The fmo request's noise and machine fields: noise_cv and page_s_per_gb
  // finite and >= 0, link_gb and mem_gb > 0 (inf = an unmodeled machine).
  const auto with = [](auto field, double v) {
    Request r = fmo_request(48, 6);
    r.mem_gb = 2.0;
    r.*field = v;
    return r;
  };
  // noise_cv also needs a finite square: above sqrt(DBL_MAX) ~ 1.34e154
  // every lognormal draw is NaN.
  for (double v : {nan, inf, -inf, -0.1, 1e155, 1e308})
    EXPECT_THROW(canonicalize(with(&Request::noise_cv, v)),
                 std::invalid_argument);
  EXPECT_NO_THROW(canonicalize(with(&Request::noise_cv, 1e154)));
  for (double v : {nan, -inf, -1.0, 0.0}) {
    EXPECT_THROW(canonicalize(with(&Request::link_gb, v)),
                 std::invalid_argument);
    EXPECT_THROW(canonicalize(with(&Request::mem_gb, v)),
                 std::invalid_argument);
  }
  for (double v : {nan, inf, -1.0})
    EXPECT_THROW(canonicalize(with(&Request::page_s_per_gb, v)),
                 std::invalid_argument);
  EXPECT_NO_THROW(canonicalize(with(&Request::link_gb, inf)));
  EXPECT_NO_THROW(canonicalize(with(&Request::noise_cv, 0.0)));
}

// Seeded mutation fuzz: every mutant of a valid request line either throws
// or canonicalizes to task models that pass perf::Model::valid() and, for
// fmo requests, noise and machine fields the simulator accepts.
TEST(Protocol, MutatedLinesThrowOrYieldValidModels) {
  const std::string valid[] = {
      "solve objective=min-max budget=64 "
      "tasks=atm:400:3:1:2:1:64;ocn:250:2:1.1:1:1:0;ice:120:1:1:0.5:2:32",
      "solve objective=max-min budget=32 tasks=x:10:0.5:1.2:0:1:0",
      "fmo objective=min-sum budget=48 family=peptide fragments=6 "
      "system_seed=3 bench_seed=42 noise_cv=0.03 fit_points=4 reps=1 "
      "link_gb=0.85 mem_gb=2 page_s_per_gb=1.5",
      "fmo objective=min-max budget=96 family=comm fragments=12 "
      "system_seed=50 bench_seed=7 noise_cv=0.05 fit_points=5 reps=2 "
      "link_gb=0.425",
      "fmo budget=60 fragments=10 noise_cv=0 mem_gb=4 page_s_per_gb=0"};
  Rng rng(20261018);
  std::size_t accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string line =
        fuzz::mutate(valid[i % std::size(valid)], " =:;", rng);
    try {
      const Request c = canonicalize(parse_request(line));
      for (const auto& t : c.tasks)
        EXPECT_TRUE((perf::Model{t.a, t.b, t.c, t.d}.valid())) << line;
      if (c.kind == RequestKind::Fmo) {
        EXPECT_TRUE(std::isfinite(c.noise_cv) && c.noise_cv >= 0.0) << line;
        EXPECT_TRUE(c.link_gb > 0.0 && c.mem_gb > 0.0) << line;
        EXPECT_TRUE(std::isfinite(c.page_s_per_gb) && c.page_s_per_gb >= 0.0)
            << line;
      }
      ++accepted;
    } catch (const ContractViolation&) {
    } catch (const std::invalid_argument&) {
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(Protocol, FormatParseCanonicalizeIsIdentity) {
  const Request solve = canonicalize(
      solve_request(64, {task("atm", 400.0, 3.0, 1.0, 2.0), task("ocn", 250.0)}));
  const Request back = canonicalize(parse_request(format_request(solve)));
  EXPECT_EQ(signature(solve), signature(back));

  Request fmo = fmo_request(48, 6, "peptide");
  fmo.link_gb = 0.85;
  fmo.mem_gb = 2.0;
  fmo.page_s_per_gb = 1.5;
  const Request cfmo = canonicalize(fmo);
  EXPECT_EQ(signature(cfmo),
            signature(canonicalize(parse_request(format_request(cfmo)))));
}

TEST(Protocol, ParseRejectsUnknownKeysAndKinds) {
  EXPECT_THROW(parse_request("solve tasks=x:1:0:1:0:1:0 frobnicate=1"),
               std::invalid_argument);
  EXPECT_THROW(parse_request("allocate budget=8"), std::invalid_argument);
}

TEST(Protocol, LoadScriptSkipsBlanksAndComments) {
  std::istringstream in(
      "# request script\n"
      "\n"
      "solve budget=8 tasks=x:1:0:1:0:1:0\n"
      "  fmo fragments=6 budget=48\n");
  const auto script = load_script(in);
  ASSERT_EQ(script.size(), 2u);
  EXPECT_EQ(script[0].kind, RequestKind::Solve);
  EXPECT_EQ(script[1].kind, RequestKind::Fmo);
}

TEST(SolutionCache, FindDoesNotTouchRecency) {
  SolutionCache cache(2);
  const auto a = make_entry(solve_request(32, {task("x", 1.0)}));
  const auto b = make_entry(solve_request(32, {task("x", 2.0)}));
  const auto c = make_entry(solve_request(32, {task("x", 3.0)}));
  cache.insert(a);
  cache.insert(b);
  // find() is classification, not commitment: it must not promote `a`, so
  // the next insert still evicts `a` as least recently used.
  ASSERT_NE(cache.find(a.signature), nullptr);
  cache.insert(c);
  EXPECT_EQ(cache.find(a.signature), nullptr);
  EXPECT_NE(cache.find(b.signature), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(SolutionCache, TouchPromotesAgainstEviction) {
  SolutionCache cache(2);
  const auto a = make_entry(solve_request(32, {task("x", 1.0)}));
  const auto b = make_entry(solve_request(32, {task("x", 2.0)}));
  const auto c = make_entry(solve_request(32, {task("x", 3.0)}));
  cache.insert(a);
  cache.insert(b);
  cache.touch(a.signature);
  cache.insert(c);
  EXPECT_NE(cache.find(a.signature), nullptr);
  EXPECT_EQ(cache.find(b.signature), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SolutionCache, InsertReplacesExistingEntryWithoutEviction) {
  SolutionCache cache(2);
  auto a = make_entry(solve_request(32, {task("x", 1.0)}));
  cache.insert(a);
  a.response.objective_value = 7.0;
  cache.insert(a);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_DOUBLE_EQ(cache.find(a.signature)->response.objective_value, 7.0);
}

TEST(SolutionCache, NearestPicksSmallestDistance) {
  SolutionCache cache(4);
  cache.insert(make_entry(solve_request(32, {task("x", 1.0)})));
  const auto close = make_entry(solve_request(32, {task("x", 2.1)}));
  cache.insert(close);
  double dist = -1.0;
  const Request probe = canonicalize(solve_request(32, {task("x", 2.0)}));
  const CacheEntry* best = cache.nearest(probe, &dist);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->signature, close.signature);
  EXPECT_GT(dist, 0.0);
  EXPECT_DOUBLE_EQ(dist, signature_distance(probe, close.request));
}

TEST(SolutionCache, NearestBreaksTiesTowardRecency) {
  // Donors at a=1 and a=4 are exactly equidistant from a=2 (relative gap
  // 0.5 both ways); the more recently used one must win deterministically.
  SolutionCache cache(4);
  const auto lo = make_entry(solve_request(32, {task("x", 1.0)}));
  const auto hi = make_entry(solve_request(32, {task("x", 4.0)}));
  cache.insert(lo);
  cache.insert(hi);
  const Request probe = canonicalize(solve_request(32, {task("x", 2.0)}));
  ASSERT_NE(cache.nearest(probe), nullptr);
  EXPECT_EQ(cache.nearest(probe)->signature, hi.signature);
  cache.touch(lo.signature);
  EXPECT_EQ(cache.nearest(probe)->signature, lo.signature);
}

TEST(SolutionCache, NearestIgnoresIncomparableInstances) {
  SolutionCache cache(4);
  Request other_objective = solve_request(32, {task("x", 1.0)});
  other_objective.objective = Objective::MinSum;
  cache.insert(make_entry(other_objective));
  cache.insert(make_entry(fmo_request(48, 6)));
  const Request probe = canonicalize(solve_request(32, {task("x", 1.0)}));
  EXPECT_EQ(cache.nearest(probe), nullptr);
}

}  // namespace
}  // namespace hslb::service

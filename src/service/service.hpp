// The allocation service: a long-running front end over the HSLB pipeline.
//
// Requests (service/protocol.hpp) are processed in fixed-size batches over
// one shared ThreadPool. Each batch runs three phases:
//
//   1. classify (sequential): canonicalize + signature each request; an
//      exact signature match against the cache is a hit (the cached payload
//      is returned byte-identically), a duplicate of an earlier request in
//      the same batch aliases its result (also a hit), and every remaining
//      miss that runs branch-and-bound selects its warm-start donor — the
//      nearest cached instance by signature_distance — against the cache
//      contents as of the BATCH START;
//   2. solve (parallel): unique misses solve concurrently on the pool,
//      each branch-and-bound started from the exact greedy and seeded from
//      its donor (re-linearization points and, when the task cost models
//      match exactly, the cut pool). An fmo-kind miss runs the substrate
//      registry's fmo scenario through hslb::Pipeline, whose Solve is the
//      certified greedy (hslb::BudgetSolver), and a max-min miss is the
//      greedy alone: they run no tree, so they select no donor;
//   3. commit (sequential, script order): warm results are audited —
//      allocation complete, budget and bounds respected, finite
//      predictions — and a failing result is replaced by a cold re-solve
//      (seeds stripped, audit_fallback flagged); responses are recorded
//      and entries inserted/touched in script order.
//
// Determinism contract: the batch width is part of the SERVICE DEFINITION,
// not a thread knob (exactly like BnbOptions::wave_size) — which requests
// share a batch, which donors they see, and the cache evolution depend
// only on the script and `batch`, never on `threads`. Replaying a script
// under any thread count yields identical response payloads and an
// identical hit/miss sequence; only latencies differ.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "minlp/bnb.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"

namespace hslb::service {

struct ServiceOptions {
  /// Worker threads solving a batch's misses (0 = hardware concurrency).
  /// Never affects results — see the determinism contract above.
  std::size_t threads = 1;
  /// Requests per batch (part of the service definition, NOT tied to
  /// `threads`): donors are selected against the cache as of batch start,
  /// so the batch width determines which requests can seed from which.
  std::size_t batch = 8;
  std::size_t cache_capacity = 64;
  /// Master switch for cross-instance warm starts (false = every miss
  /// solves cold; the A/B lever of bench/server_throughput).
  bool warm_start = true;
  /// Branch-and-bound options of solve-kind misses (fmo-kind misses run
  /// the certified greedy, no tree).
  minlp::BnbOptions bnb;
};

struct ServiceReport {
  std::size_t requests = 0;
  std::size_t hits = 0;    ///< exact-repeat + in-batch duplicates
  std::size_t misses = 0;  ///< actual solves
  std::size_t warm_solves = 0;  ///< B&B misses seeded from a donor
  std::size_t cold_solves = 0;  ///< B&B misses seeded from the greedy alone
  /// Misses that ran no tree (fmo kind, max-min), counted apart so warm
  /// and cold B&B nodes per solve compare.
  std::size_t greedy_solves = 0;
  std::size_t audit_fallbacks = 0;  ///< warm results replaced by cold
  std::size_t evictions = 0;        ///< LRU evictions (mirror of the cache)
  /// B&B nodes summed over warm-seeded vs cold solves (the bench's
  /// fewer-nodes-when-warm gate reads these).
  std::size_t warm_bnb_nodes = 0;
  std::size_t cold_bnb_nodes = 0;
  /// Per-request latency, seconds, in completion (script) order.
  std::vector<double> latencies;
  double wall_seconds = 0.0;  ///< total run_script wall time

  double p50_latency() const { return percentile(0.50); }
  double p99_latency() const { return percentile(0.99); }
  double requests_per_second() const;
  double hit_rate() const;
  /// Nearest-rank percentile of `latencies` (q in [0, 1]).
  double percentile(double q) const;

  std::string str() const;
};

class AllocationService {
 public:
  explicit AllocationService(ServiceOptions options = {});

  /// One request == a batch of one.
  Response handle(const Request& request);

  /// Replays a request script through the batched phases; responses are in
  /// script order. Malformed requests throw std::invalid_argument.
  std::vector<Response> run_script(const std::vector<Request>& script);

  const ServiceReport& report() const { return report_; }
  const SolutionCache& cache() const { return cache_; }

  /// Testing hook: plant a doctored cache entry (e.g. with a poisoned
  /// seed) to exercise the audit-fallback path.
  void insert_cache_entry(CacheEntry entry) { cache_.insert(std::move(entry)); }

 private:
  struct Solved {
    Response response;
    SolveSeed seed;  ///< what the solve learned (cached for donors)
  };

  /// Solves one canonicalized request, seeded from `donor` (nullptr =
  /// cold; always null for misses that run no tree). Pure apart from
  /// wall-clock latency stamping.
  Solved solve_request(const Request& canonical, std::uint64_t sig,
                       const CacheEntry* donor) const;
  Solved solve_kind_solve(const Request& canonical,
                          const SolveSeed& seed) const;
  Solved solve_kind_fmo(const Request& canonical) const;

  /// Feasibility audit of a solved response against its request: complete
  /// allocation, budget and per-task bounds respected, finite numbers,
  /// solver reached a solution.
  bool audit(const Request& canonical, const Response& response) const;

  ServiceOptions opt_;
  ThreadPool pool_;
  SolutionCache cache_;
  ServiceReport report_;
};

}  // namespace hslb::service

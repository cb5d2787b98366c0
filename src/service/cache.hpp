// Bounded LRU solution cache of the allocation service.
//
// Keyed by the canonicalized instance signature (service/protocol.hpp).
// Each entry stores the response payload (for exact-repeat hits, returned
// byte-identically) AND what the solve learned (SolveSeed: the
// allocation, the MINLP optimum, the cut pool, the task cost models; empty
// for a miss that ran no tree) so a *different* instance can seed its
// branch-and-bound from the nearest cached neighbor (cross-instance warm
// starts).
//
// Determinism contract: lookups and nearest-neighbor scans are pure
// functions of the entry set and its recency order; ties in nearest() are
// broken toward the most recently used entry, so replaying a request
// script always selects the same donors regardless of wall-clock timing
// or thread count.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "hslb/budget.hpp"
#include "service/protocol.hpp"

namespace hslb::service {

struct CacheEntry {
  Request request;  ///< canonicalized
  std::uint64_t signature = 0;
  Response response;    ///< payload of the solve that populated the entry
  SolveSeed seed;  ///< donor data for warm-starting neighbors
};

class SolutionCache {
 public:
  explicit SolutionCache(std::size_t capacity);

  /// Exact lookup; nullptr on miss. Does NOT touch recency — call touch()
  /// when the hit is committed (the service defers recency updates to its
  /// sequential commit phase to keep batch classification deterministic).
  const CacheEntry* find(std::uint64_t signature) const;

  /// Moves an entry to most-recently-used. No-op when absent.
  void touch(std::uint64_t signature);

  /// The entry minimizing signature_distance(canonical, entry.request)
  /// over finite distances; nullptr when none is comparable. Ties go to
  /// the more recently used entry. `distance_out`, when non-null, receives
  /// the winning distance.
  const CacheEntry* nearest(const Request& canonical,
                            double* distance_out = nullptr) const;

  /// Inserts (or replaces) the entry and marks it most-recently-used,
  /// evicting the least-recently-used entry beyond capacity.
  void insert(CacheEntry entry);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  /// Front = most recently used.
  std::list<CacheEntry> entries_;
  std::unordered_map<std::uint64_t, std::list<CacheEntry>::iterator> index_;
  std::size_t evictions_ = 0;
};

}  // namespace hslb::service

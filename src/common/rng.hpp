// Deterministic, seedable random number generation.
//
// All stochastic pieces of the library (benchmark noise models, synthetic
// molecule generation) draw from hslb::Rng so that every experiment in
// bench/ is exactly reproducible from its printed seed.
//
// The generator is xoshiro256++ (Blackman & Vigna), seeded through
// SplitMix64; both are tiny, fast, and have no external dependencies.
#pragma once

#include <cstdint>
#include <vector>

namespace hslb {

/// Mixes a base seed with a stream index into an independent child seed
/// (SplitMix64 avalanche). Used for deterministic per-task RNG streams:
/// probes and fits executed in parallel draw from derive_seed(seed, task)
/// so results are identical for every thread count and execution order.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

/// xoshiro256++ pseudo-random generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit state words via SplitMix64 of `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// UniformRandomBitGenerator interface.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second deviate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal multiplicative factor with E[X] = 1 and the given
  /// coefficient of variation; used by the benchmark noise models.
  double lognormal_unit_mean(double cv);

  /// Random permutation of {0, ..., n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derive an independent child generator (for per-task streams).
  Rng spawn();

 private:
  std::uint64_t state_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace hslb

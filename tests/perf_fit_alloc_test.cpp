// Heap traffic of one perf::fit, counted by replacing the global operator
// new (hence a test binary of its own). The fit sets up its rows, free-column
// matrices and QR storage once, searches its exponents (about 37 per fit on
// the fit sweep) without touching the heap, and scores the winner: a bounded
// number of allocations per fit, whatever the number of exponents it tries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "perf/fit.hpp"
#include "sim/noise.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hslb::perf {
namespace {

constexpr std::size_t kMaxAllocationsPerFit = 64;

/// fit_bench's single-component sets: a 1-degree atm-like curve at
/// `points` node counts 8, 18.4, 42.3, ... with 2% noise.
SampleSet bench_samples(std::size_t points) {
  Rng rng(5);
  const Model truth{27459.0, 1.9e-4, 1.23, 43.7};
  SampleSet samples;
  double n = 8.0;
  for (std::size_t i = 0; i < points; ++i) {
    samples.push_back({n, truth.eval(n) * rng.lognormal_unit_mean(0.02)});
    n *= 2.3;
  }
  return samples;
}

/// costmodel_parity_test's folded refit set: 5 counts x 2 gather
/// repetitions plus 3 observations of one task, each entered 4 times.
SampleSet folded_samples() {
  const Model truth{5000.0, 2e-4, 1.3, 12.0};
  SampleSet gathered;
  for (long long n : {1, 4, 16, 64, 256}) {
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      sim::NoiseModel noise(0.03, derive_seed(21 + rep, n));
      gathered.push_back({static_cast<double>(n),
                          noise.perturb(truth.eval(static_cast<double>(n)))});
    }
  }
  const std::vector<Observed> observed{
      {"t", 16.0, 1.5 * truth.eval(16.0), 3},
      {"t", 64.0, 1.3 * truth.eval(64.0), 3},
      {"u", 4.0, 2.0 * truth.eval(4.0), 3},
      {"t", 16.0, 1.4 * truth.eval(16.0), 4}};
  return fold_observations(gathered, observed, "t", 4, 4, 4.0);
}

TEST(PerfFitAlloc, OneFitAllocatesABoundedAmount) {
  const std::vector<SampleSet> sets{bench_samples(4), bench_samples(10),
                                    folded_samples()};
  ASSERT_EQ(sets[2].size(), 22u);
  for (const SampleSet& samples : sets) {
    const std::size_t before = g_allocations.load();
    const FitResult res = fit(samples);
    const std::size_t allocations = g_allocations.load() - before;
    EXPECT_LE(allocations, kMaxAllocationsPerFit)
        << samples.size() << " samples";
    EXPECT_GT(res.r2, 0.99) << samples.size() << " samples";
  }
}

}  // namespace
}  // namespace hslb::perf

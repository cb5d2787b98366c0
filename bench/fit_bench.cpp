// Microbenchmarks of the Fit step: the variable-projection fit (exponent
// grid and Brent refinement over exact box least squares) on the paper's
// performance-function family and on the recorded sets of the fit sweep.
#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "perf/fit.hpp"

namespace {

using namespace hslb;

perf::SampleSet make_samples(std::size_t points, double noise_cv,
                             std::uint64_t seed) {
  Rng rng(seed);
  const perf::Model truth{27459.0, 1.9e-4, 1.23, 43.7};  // 1-degree atm-like
  perf::SampleSet samples;
  double n = 8.0;
  for (std::size_t i = 0; i < points; ++i) {
    samples.push_back({n, truth.eval(n) * rng.lognormal_unit_mean(noise_cv)});
    n *= 2.3;
  }
  return samples;
}

void BM_FitSingleComponent(benchmark::State& state) {
  const auto samples =
      make_samples(static_cast<std::size_t>(state.range(0)), 0.02, 5);
  for (auto _ : state) {
    const auto fit = perf::fit(samples);
    benchmark::DoNotOptimize(fit.sse);
  }
}
BENCHMARK(BM_FitSingleComponent)->Arg(4)->Arg(6)->Arg(10);

void BM_FitFoldedRefit(benchmark::State& state) {
  // A controller refit's shape: 5 node counts x 2 gather repetitions, plus
  // 3 epoch observations folded in at weight 4 (fold_observations enters
  // each 4 times): 22 samples over 5 distinct counts.
  perf::SampleSet gathered;
  for (std::uint64_t rep = 0; rep < 2; ++rep) {
    const auto sweep = make_samples(5, 0.03, 40 + rep);
    gathered.insert(gathered.end(), sweep.begin(), sweep.end());
  }
  std::vector<perf::Observed> observed;
  for (std::size_t i = 1; i <= 3; ++i)
    observed.push_back({"t", gathered[i].nodes, 1.4 * gathered[i].seconds, 2});
  const auto samples =
      perf::fold_observations(gathered, observed, "t", 2, 2, 4.0);
  for (auto _ : state) {
    const auto fit = perf::fit(samples);
    benchmark::DoNotOptimize(fit.sse);
  }
}
BENCHMARK(BM_FitFoldedRefit);

void BM_FitManyFragments(benchmark::State& state) {
  // The FMO pipeline fits one model per fragment: hundreds of small fits.
  const auto fragments = static_cast<std::size_t>(state.range(0));
  std::vector<perf::SampleSet> all;
  for (std::size_t f = 0; f < fragments; ++f)
    all.push_back(make_samples(5, 0.03, 100 + f));
  for (auto _ : state) {
    double acc = 0.0;
    for (const auto& s : all) acc += perf::fit(s).r2;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FitManyFragments)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

/// The sets of one kind in tests/data/fit_sse_sweep.txt: "gathered" (1,152
/// Gather sample sets over all four substrates), "folded" (288 controller
/// refit sets) or "calibration" (the 8 CESM calibration sets).
std::vector<perf::SampleSet> sweep_sets(const std::string& kind) {
  std::ifstream in(HSLB_TEST_DATA_DIR "/fit_sse_sweep.txt");
  std::vector<perf::SampleSet> sets;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string set_kind, label;
    double reference_sse = 0.0;
    std::size_t count = 0;
    fields >> set_kind >> label >> reference_sse >> count;
    if (set_kind != kind) continue;
    perf::SampleSet samples(count);
    for (auto& s : samples) fields >> s.nodes >> s.seconds;
    sets.push_back(std::move(samples));
  }
  return sets;
}

void BM_FitSweep(benchmark::State& state, const std::string& kind) {
  // The Fit on its recorded traffic: each iteration fits every set of the
  // kind once; per_fit is the time per fit.
  const auto sets = sweep_sets(kind);
  if (sets.empty()) {
    state.SkipWithError("no sweep sets of this kind");
    return;
  }
  for (auto _ : state)
    for (const auto& samples : sets)
      benchmark::DoNotOptimize(perf::fit(samples).sse);
  state.counters["per_fit"] = benchmark::Counter(
      static_cast<double>(sets.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_FitSweep, gathered, std::string("gathered"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FitSweep, folded, std::string("folded"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FitSweep, calibration, std::string("calibration"));

}  // namespace

BENCHMARK_MAIN();

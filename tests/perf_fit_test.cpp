#include "perf/fit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "perf/benchdata.hpp"

namespace hslb::perf {
namespace {

SampleSet sample_model(const Model& truth, const std::vector<double>& nodes,
                       double noise_cv = 0.0, std::uint64_t seed = 1) {
  Rng rng(seed);
  SampleSet out;
  for (double n : nodes)
    out.push_back({n, truth.eval(n) * rng.lognormal_unit_mean(noise_cv)});
  return out;
}

TEST(Fit, RecoversAmdahlModelExactly) {
  const Model truth{1200.0, 0.0, 1.0, 4.0};
  const auto samples = sample_model(truth, {1, 2, 4, 8, 16, 32, 64, 128});
  const auto res = fit(samples);
  EXPECT_GT(res.r2, 0.99999);
  // Predictions must match even if (b,c) trade off against (a,d) slightly.
  for (double n : {1.0, 3.0, 24.0, 96.0, 200.0}) {
    EXPECT_NEAR(res.model.eval(n), truth.eval(n),
                0.02 * truth.eval(n) + 1e-6)
        << "at n=" << n;
  }
}

TEST(Fit, RecoversFullModelParameters) {
  const Model truth{5000.0, 0.05, 1.3, 10.0};
  const auto samples =
      sample_model(truth, {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
  const auto res = fit(samples);
  EXPECT_GT(res.r2, 0.9999);
  for (double n : {1.0, 10.0, 100.0, 400.0}) {
    EXPECT_NEAR(res.model.eval(n), truth.eval(n), 0.05 * truth.eval(n));
  }
}

TEST(Fit, FittedModelIsConvexByDefault) {
  const Model truth{900.0, 0.01, 1.8, 2.0};
  const auto samples = sample_model(truth, {1, 4, 16, 64, 256}, 0.05, 7);
  const auto res = fit(samples);
  EXPECT_TRUE(res.model.is_convex());
  EXPECT_GE(res.model.a, 0.0);
  EXPECT_GE(res.model.b, 0.0);
  EXPECT_GE(res.model.c, 1.0);
  EXPECT_GE(res.model.d, 0.0);
}

TEST(Fit, NoisyDataStillGoodR2) {
  // The paper: "R^2 was very close to 1 for each component" with ~5 runs.
  const Model truth{3000.0, 0.0, 1.0, 20.0};
  const auto samples =
      sample_model(truth, {8, 16, 32, 64, 128}, 0.03, 99);
  const auto res = fit(samples);
  EXPECT_GT(res.r2, 0.99);
}

TEST(Fit, FourPointsSufficeForCesmLikeCurves) {
  // §III-C: "for CESM, four points were enough".
  const Model truth{8000.0, 0.0, 1.0, 15.0};
  const auto samples = sample_model(truth, {16, 64, 256, 1024}, 0.02, 3);
  const auto res = fit(samples);
  EXPECT_GT(res.r2, 0.995);
  EXPECT_NEAR(res.model.eval(512.0), truth.eval(512.0),
              0.1 * truth.eval(512.0));
}

TEST(Fit, RejectsDegenerateInput) {
  EXPECT_THROW(fit(SampleSet{}), ContractViolation);
  EXPECT_THROW(fit(SampleSet{{4.0, 1.0}}), ContractViolation);
  // Two samples at the same node count: cannot constrain scaling.
  EXPECT_THROW(fit(SampleSet{{4.0, 1.0}, {4.0, 1.1}}), ContractViolation);
  // Non-positive times are invalid measurements.
  EXPECT_THROW(fit(SampleSet{{1.0, 0.0}, {2.0, 1.0}}), ContractViolation);
}

TEST(Fit, SubNanosecondSamplesFitInsideTheBox) {
  // Every seconds x nodes product is near 1e-10: the fit box scales with
  // the data, so such samples fit as well as second-scale ones.
  const Model truth{1e-10, 0.0, 1.0, 2e-12};
  const auto samples = sample_model(truth, {1, 2, 4, 8, 16, 32}, 0.02, 5);
  const auto res = fit(samples);
  EXPECT_GT(res.r2, 0.99);
  EXPECT_TRUE(res.model.valid());
  for (double n : {1.0, 8.0, 32.0}) {
    EXPECT_NEAR(res.model.eval(n), truth.eval(n), 0.1 * truth.eval(n))
        << "at n=" << n;
  }
}

TEST(Fit, DeterministicForSeed) {
  const Model truth{700.0, 0.0, 1.0, 3.0};
  const auto samples = sample_model(truth, {1, 4, 16, 64}, 0.05, 11);
  const auto r1 = fit(samples);
  const auto r2 = fit(samples);
  EXPECT_EQ(r1.model.a, r2.model.a);
  EXPECT_EQ(r1.model.d, r2.model.d);
  EXPECT_EQ(r1.sse, r2.sse);
}

TEST(Fit, UnconstrainedExponentOptionAllowsConcave) {
  // With min_c < 1, fits may use sub-linear exponents (the paper discusses
  // c constrained positive, not necessarily >= 1).
  const Model truth{100.0, 2.0, 0.5, 0.0};  // concave communication growth
  SampleSet samples;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0})
    samples.push_back({n, truth.eval(n)});
  FitOptions opt;
  opt.min_c = 0.1;
  const auto res = fit(samples, opt);
  EXPECT_GT(res.r2, 0.9999);
  EXPECT_LT(res.model.c, 1.0);
}

TEST(Fit, MinCAboveTheExponentCeilingRejected) {
  const auto samples = sample_model({700.0, 0.0, 1.0, 3.0}, {1, 4, 16, 64});
  FitOptions opt;
  opt.min_c = 3.5;
  EXPECT_THROW(fit(samples, opt), ContractViolation);
  opt.min_c = 3.0;
  EXPECT_EQ(fit(samples, opt).model.c, 3.0);
}

TEST(Fit, ZeroNonlinearTermReportsTheLowestExponent) {
  // An exact a/n + d world: every exponent fits equally well with b = 0,
  // and ties go to the lowest c.
  const auto samples = sample_model({1200.0, 0.0, 1.0, 4.0}, {1, 2, 4, 8});
  const auto res = fit(samples);
  EXPECT_EQ(res.model.b, 0.0);
  EXPECT_EQ(res.model.c, 1.0);
}

// The fit's regression sweep (tests/data/fit_sse_sweep.txt): 1,152 gathered
// sets over all four substrates, 288 controller refit sets and the 8 CESM
// calibration sets, each with the SSE the multistart Levenberg-Marquardt fit
// that perf::fit replaced reached on it.
struct SweepSet {
  std::string kind, label;
  double multistart_sse = 0.0;
  SampleSet samples;
  double sum_y2 = 0.0;
};

std::vector<SweepSet> load_sweep() {
  std::ifstream in(HSLB_TEST_DATA_DIR "/fit_sse_sweep.txt");
  EXPECT_TRUE(in.is_open());
  std::vector<SweepSet> sets;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    SweepSet set;
    std::size_t count = 0;
    fields >> set.kind >> set.label >> set.multistart_sse >> count;
    set.samples.resize(count);
    for (auto& s : set.samples) {
      fields >> s.nodes >> s.seconds;
      set.sum_y2 += s.seconds * s.seconds;
    }
    EXPECT_TRUE(fields) << line;
    sets.push_back(std::move(set));
  }
  return sets;
}

// The fit must never do worse than the multistart fit, up to rounding:
// exact-interpolation sets reach SSEs near 1e-25.
TEST(FitSweep, SseNeverAboveTheMultistartFit) {
  std::map<std::string, std::size_t> kinds;
  for (const SweepSet& set : load_sweep()) {
    const FitResult res = fit(set.samples);
    EXPECT_LE(res.sse, set.multistart_sse * (1.0 + 1e-9) + 1e-20 * set.sum_y2)
        << set.kind << " " << set.label;
    ++kinds[set.kind];
  }
  EXPECT_GE(kinds["gathered"], 1000u);
  EXPECT_GE(kinds["folded"], 200u);
  EXPECT_EQ(kinds["calibration"], 8u);
}

// tests/data/fit_sse_exact.txt pins, per sweep set, the SSE of the exact
// fit that solved every active set on the raw samples. Its slack is 1e4
// times tighter than the multistart gate's, so on exact-interpolation sets
// (SSE near 1e-27) a change that settles on a slightly different exponent
// fails here.
TEST(FitSweep, SseNeverAboveTheExactFitItReplaces) {
  const std::vector<SweepSet> sets = load_sweep();
  std::ifstream in(HSLB_TEST_DATA_DIR "/fit_sse_exact.txt");
  ASSERT_TRUE(in.is_open());
  std::size_t next = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    ASSERT_LT(next, sets.size()) << line;
    const SweepSet& set = sets[next++];
    std::istringstream fields(line);
    std::string kind, label;
    double exact_sse = 0.0;
    fields >> kind >> label >> exact_sse;
    ASSERT_TRUE(fields) << line;
    ASSERT_EQ(kind + " " + label, set.kind + " " + set.label);
    const FitResult res = fit(set.samples);
    EXPECT_LE(res.sse, exact_sse * (1.0 + 1e-9) + 1e-24 * set.sum_y2)
        << kind << " " << label;
  }
  EXPECT_EQ(next, sets.size());
}

// A certificate of each fit's (a, b, d) that uses nothing of fit.cpp. At
// the returned exponent c the SSE is a convex quadratic in (a, b, d) over
// the box fit.hpp documents, so they are its minimizer exactly when the
// KKT conditions hold (Lawson & Hanson 1974, ch. 23): dSSE/dθ >= 0 for a
// coefficient at 0, <= 0 at its upper bound and = 0 strictly inside.
// Returns, per coefficient, how far dSSE/dθ over the raw samples lies
// outside that sign, relative to ||φ|| ||y|| (φ its column 1/n, n^c or 1
// over the samples), or infinity outside the box: 0 at a box optimum, up to
// rounding.
std::array<double, 3> kkt_residuals(const SampleSet& samples, const Model& m) {
  double max_y = 0.0, min_y = samples.front().seconds, max_yn = 0.0;
  double y2 = 0.0;
  for (const Sample& s : samples) {
    max_y = std::max(max_y, s.seconds);
    min_y = std::min(min_y, s.seconds);
    max_yn = std::max(max_yn, s.seconds * s.nodes);
    y2 += s.seconds * s.seconds;
  }
  const std::array<double, 3> theta{m.a, m.b, m.d};
  const std::array<double, 3> hi{50.0 * max_yn, std::max(max_y, 1.0),
                                 2.0 * min_y};
  std::array<double, 3> grad{}, phi2{};
  for (const Sample& s : samples) {
    const std::array<double, 3> phi{1.0 / s.nodes, std::pow(s.nodes, m.c),
                                    1.0};
    const double r = s.seconds - (m.a * phi[0] + m.b * phi[1] + m.d * phi[2]);
    for (std::size_t j = 0; j < 3; ++j) {
      grad[j] -= 2.0 * r * phi[j];
      phi2[j] += phi[j] * phi[j];
    }
  }
  std::array<double, 3> out{};
  for (std::size_t j = 0; j < 3; ++j) {
    const double off =
        !(theta[j] >= 0.0 && theta[j] <= hi[j])
            ? std::numeric_limits<double>::infinity()
        : theta[j] == 0.0   ? -grad[j]
        : theta[j] == hi[j] ? grad[j]
                            : std::fabs(grad[j]);
    out[j] = std::max(off, 0.0) / std::sqrt(phi2[j] * y2);
  }
  return out;
}

// Every sweep set at min_c 1 and at 0.1. The largest residual on the sweep
// is about 2e-15; a search that settles for b = 0 where b > 0 fits better
// leaves residuals up to 0.17.
TEST(FitSweep, EveryFitPassesItsKktCertificate) {
  for (const SweepSet& set : load_sweep()) {
    for (double min_c : {1.0, 0.1}) {
      FitOptions opt;
      opt.min_c = min_c;
      const Model m = fit(set.samples, opt).model;
      const std::array<double, 3> res = kkt_residuals(set.samples, m);
      for (std::size_t j = 0; j < 3; ++j)
        EXPECT_LE(res[j], 1e-11)
            << set.kind << " " << set.label << " min_c " << min_c << ": d/d"
            << "abd"[j] << " at (" << m.a << ", " << m.b << ", " << m.c
            << ", " << m.d << ")";
    }
  }
}

TEST(FitAll, FitsEveryTask) {
  BenchTable table;
  table.tasks.push_back({"atm", sample_model({2000, 0, 1, 10}, {8, 32, 128, 512})});
  table.tasks.push_back({"ocn", sample_model({4000, 0, 1, 30}, {8, 32, 128, 512})});
  const auto fits = fit_all(table);
  ASSERT_EQ(fits.size(), 2u);
  EXPECT_EQ(fits[0].first, "atm");
  EXPECT_GT(fits[0].second.r2, 0.999);
  EXPECT_GT(fits[1].second.r2, 0.999);
}

TEST(BenchTable, CsvRoundTrip) {
  BenchTable table;
  table.tasks.push_back({"ice", {{16.0, 100.5}, {64.0, 30.25}}});
  table.tasks.push_back({"lnd", {{16.0, 50.0}}});
  const auto loaded = BenchTable::from_csv(table.to_csv());
  ASSERT_EQ(loaded.tasks.size(), 2u);
  EXPECT_EQ(loaded.tasks[0].task, "ice");
  ASSERT_EQ(loaded.tasks[0].samples.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.tasks[0].samples[1].seconds, 30.25);
  EXPECT_TRUE(loaded.contains("lnd"));
  EXPECT_FALSE(loaded.contains("atm"));
  EXPECT_THROW(loaded.find("atm"), ContractViolation);
}

}  // namespace
}  // namespace hslb::perf

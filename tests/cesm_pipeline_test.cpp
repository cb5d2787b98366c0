#include "cesm/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/contracts.hpp"

namespace hslb::cesm {
namespace {

TEST(GatherPlan, CoversAllComponentsWithEnoughPoints) {
  const auto plan = gather_plan(Resolution::Deg1, 2048, true, 5);
  ASSERT_EQ(plan.size(), 4u);
  for (const auto& [name, counts] : plan) {
    EXPECT_GE(counts.size(), 4u) << name;  // §III-C: at least ~4 points
    for (long long n : counts) {
      EXPECT_GE(n, 1);
      EXPECT_LE(n, 2048);
    }
  }
}

TEST(GatherPlan, OceanProbesOnlyAllowedCounts) {
  const auto plan = gather_plan(Resolution::EighthDeg, 32768, true, 5);
  const auto& allowed = ocean_allowed_nodes(Resolution::EighthDeg);
  for (const auto& [name, counts] : plan) {
    if (name != "ocn") continue;
    for (long long n : counts) {
      EXPECT_NE(std::find(allowed.begin(), allowed.end(), n), allowed.end())
          << "probing disallowed ocean count " << n;
    }
  }
}

TEST(GatherPlan, AtmDeg1StaysWithinSet) {
  const auto plan = gather_plan(Resolution::Deg1, 4096, true, 5);
  for (const auto& [name, counts] : plan) {
    if (name != "atm") continue;
    EXPECT_LE(counts.back(), 1664);
  }
}

TEST(CesmPipeline, EndToEndDeg1Small) {
  PipelineOptions opt;
  const auto res = run_pipeline(Resolution::Deg1, 128, opt);
  // Fits good; ice allowed to be noisier.
  for (Component c : kComponents) {
    const double floor = c == Component::Ice ? 0.90 : 0.97;
    EXPECT_GT(res.fits[index(c)].r2, floor) << to_string(c);
  }
  // Solution feasible for layout 1.
  const auto atm = res.solution.nodes[index(Component::Atm)];
  const auto ocn = res.solution.nodes[index(Component::Ocn)];
  EXPECT_LE(atm + ocn, 128);
  EXPECT_LE(res.solution.nodes[index(Component::Ice)] +
                res.solution.nodes[index(Component::Lnd)],
            atm);
  // Predicted and actual totals in the published ballpark (Table III:
  // manual 416.0, HSLB predicted 410.6, actual 425.2).
  EXPECT_GT(res.solution.predicted_total, 300.0);
  EXPECT_LT(res.solution.predicted_total, 550.0);
  EXPECT_GT(res.actual_total, 300.0);
  EXPECT_LT(res.actual_total, 550.0);
  // Prediction within ~15% of execution.
  EXPECT_NEAR(res.actual_total, res.solution.predicted_total,
              0.15 * res.solution.predicted_total);
}

TEST(CesmPipeline, BeatsOrMatchesManualBaseline) {
  // The paper's headline: HSLB totals are comparable to (or better than)
  // expert manual allocations. Evaluate both on the noise-free oracle.
  for (std::size_t case_idx : {0u, 1u}) {  // the two 1-degree blocks
    const auto& pub = published_cases()[case_idx];
    PipelineOptions opt;
    const auto res = run_pipeline(pub.resolution, pub.total_nodes, opt);
    Simulator oracle(pub.resolution);
    std::array<double, 4> manual_true{}, hslb_true{};
    for (Component c : kComponents) {
      manual_true[index(c)] =
          oracle.true_seconds(c, pub.manual_nodes[index(c)]);
      hslb_true[index(c)] =
          oracle.true_seconds(c, res.solution.nodes[index(c)]);
    }
    const double manual_total = layout_total(Layout::Hybrid, manual_true);
    const double hslb_total = layout_total(Layout::Hybrid, hslb_true);
    EXPECT_LE(hslb_total, manual_total * 1.05)
        << "N=" << pub.total_nodes;
  }
}

TEST(CesmPipeline, UnconstrainedOceanImprovesAt32k) {
  // §IV-B: removing the ocean node constraint at 32,768 nodes improved the
  // predicted time by ~40% and the actual time by ~25%.
  PipelineOptions con, unc;
  con.ocean_constrained = true;
  unc.ocean_constrained = false;
  const auto res_con = run_pipeline(Resolution::EighthDeg, 32768, con);
  const auto res_unc = run_pipeline(Resolution::EighthDeg, 32768, unc);
  EXPECT_LT(res_unc.solution.predicted_total,
            0.85 * res_con.solution.predicted_total);
  EXPECT_LT(res_unc.actual_total, 0.90 * res_con.actual_total);
}

TEST(CesmPipeline, DeterministicPerSeed) {
  PipelineOptions opt;
  const auto a = run_pipeline(Resolution::Deg1, 256, opt);
  const auto b = run_pipeline(Resolution::Deg1, 256, opt);
  for (Component c : kComponents)
    EXPECT_EQ(a.solution.nodes[index(c)], b.solution.nodes[index(c)]);
  EXPECT_EQ(a.actual_total, b.actual_total);
}

TEST(CesmPipeline, IdenticalAcrossThreadCounts) {
  // Parallel benchmarking must reproduce the serial run bit-for-bit.
  PipelineOptions serial, wide;
  serial.threads = 1;
  wide.threads = 4;
  const auto a = run_pipeline(Resolution::Deg1, 256, serial);
  const auto b = run_pipeline(Resolution::Deg1, 256, wide);
  for (Component c : kComponents) {
    EXPECT_EQ(a.solution.nodes[index(c)], b.solution.nodes[index(c)]);
    EXPECT_DOUBLE_EQ(a.fits[index(c)].model.a, b.fits[index(c)].model.a);
    EXPECT_DOUBLE_EQ(a.fits[index(c)].r2, b.fits[index(c)].r2);
  }
  EXPECT_DOUBLE_EQ(a.solution.predicted_total, b.solution.predicted_total);
  EXPECT_DOUBLE_EQ(a.actual_total, b.actual_total);
}

TEST(CesmPipeline, ReportMatchesResult) {
  PipelineOptions opt;
  opt.threads = 2;
  const auto res = run_pipeline(Resolution::Deg1, 128, opt);
  EXPECT_EQ(res.report.application.rfind("cesm", 0), 0u);
  EXPECT_EQ(res.report.threads, 2u);
  ASSERT_EQ(res.report.fits.size(), 4u);
  EXPECT_DOUBLE_EQ(res.report.min_r2(), res.min_r2());
  EXPECT_DOUBLE_EQ(res.report.predicted_total, res.solution.predicted_total);
  EXPECT_DOUBLE_EQ(res.report.actual_total, res.actual_total);
  EXPECT_EQ(res.report.solver.status, "optimal");
  EXPECT_GT(res.report.solver.nodes, 0u);
  EXPECT_NE(res.report.str().find("solve"), std::string::npos);
}

TEST(CesmPipeline, MinR2Diagnostic) {
  PipelineOptions opt;
  const auto res = run_pipeline(Resolution::Deg1, 128, opt);
  double expect_min = 1.0;
  for (const auto& f : res.fits) expect_min = std::min(expect_min, f.r2);
  EXPECT_DOUBLE_EQ(res.min_r2(), expect_min);
}

TEST(Simulator, IceIsNoisierThanLand) {
  Simulator sim(Resolution::Deg1);
  double ice_spread = 0.0, lnd_spread = 0.0;
  const double ice_true = sim.true_seconds(Component::Ice, 100);
  const double lnd_true = sim.true_seconds(Component::Lnd, 100);
  for (std::uint64_t rep = 0; rep < 200; ++rep) {
    ice_spread +=
        std::fabs(sim.benchmark_at(Component::Ice, 100, rep) - ice_true);
    lnd_spread +=
        std::fabs(sim.benchmark_at(Component::Lnd, 100, rep) - lnd_true);
  }
  EXPECT_GT(ice_spread / ice_true, lnd_spread / lnd_true);
}

TEST(Simulator, CoupledRunZeroNoiseMatchesFormula) {
  SimulatorOptions opt;
  opt.noise_cv = 0.0;
  opt.ice_noise_cv = 0.0;
  Simulator sim(Resolution::Deg1, opt);
  const std::array<long long, 4> nodes{15, 89, 104, 24};
  for (Layout layout : {Layout::Hybrid, Layout::SequentialAtmGroup,
                        Layout::FullySequential}) {
    const auto run = sim.run_coupled(layout, nodes, 24);
    std::array<double, 4> truth{};
    for (Component c : kComponents)
      truth[index(c)] = sim.true_seconds(c, nodes[index(c)]);
    EXPECT_NEAR(run.total_seconds, layout_total(layout, truth),
                1e-9 * run.total_seconds)
        << to_string(layout);
    EXPECT_NEAR(run.coupling_loss_seconds, 0.0, 1e-9 * run.total_seconds);
    EXPECT_EQ(run.events, 96u);  // 4 components x 24 coupling periods
    EXPECT_EQ(run.intervals, 24);
  }
}

TEST(Simulator, CoupledRunNoiseCostsBarrierTime) {
  SimulatorOptions opt;
  opt.noise_cv = 0.08;
  opt.ice_noise_cv = 0.15;
  Simulator sim(Resolution::Deg1, opt);
  const std::array<long long, 4> nodes{15, 89, 104, 24};
  const auto run = sim.run_coupled(Layout::Hybrid, nodes, 24);
  // Per-interval barriers can only add time over the barrier-free formula.
  EXPECT_GE(run.coupling_loss_seconds, -1e-9 * run.total_seconds);
  EXPECT_GT(run.coupling_loss_seconds, 0.0);
  // Component sums are consistent with the slices.
  double sum = 0.0;
  for (double s : run.component_seconds) sum += s;
  EXPECT_GT(sum, 0.0);
}

TEST(Simulator, CoupledRunValidatesIntervals) {
  Simulator sim(Resolution::Deg1);
  EXPECT_THROW(sim.run_coupled(Layout::Hybrid, {1, 1, 2, 2}, 0),
               ContractViolation);
}

}  // namespace
}  // namespace hslb::cesm

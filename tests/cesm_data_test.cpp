#include "cesm/data.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cesm/layouts.hpp"
#include "perf/fit.hpp"

namespace hslb::cesm {
namespace {

TEST(PublishedData, SixTableBlocks) {
  const auto& cases = published_cases();
  ASSERT_EQ(cases.size(), 6u);
  EXPECT_EQ(cases[0].total_nodes, 128);
  EXPECT_EQ(cases[1].total_nodes, 2048);
  EXPECT_EQ(cases[2].total_nodes, 8192);
  EXPECT_EQ(cases[3].total_nodes, 32768);
  EXPECT_FALSE(cases[4].ocean_constrained);
  EXPECT_FALSE(cases[5].ocean_constrained);
}

TEST(PublishedData, TotalsMatchLayout1Formula) {
  // Consistency of the transcribed Table III: the published totals must
  // equal max(max(ice,lnd)+atm, ocn) of the published component times.
  for (const auto& c : published_cases()) {
    if (c.has_manual) {
      EXPECT_NEAR(layout_total(Layout::Hybrid, c.manual_seconds),
                  c.manual_total, 0.01)
          << to_string(c.resolution) << " N=" << c.total_nodes;
    }
    EXPECT_NEAR(layout_total(Layout::Hybrid, c.hslb_actual_seconds),
                c.hslb_actual_total, 0.01)
        << to_string(c.resolution) << " N=" << c.total_nodes;
  }
}

TEST(PublishedData, ManualAllocationsRespectBudget) {
  for (const auto& c : published_cases()) {
    if (!c.has_manual) continue;
    // Layout 1: atm + ocn <= N and ice + lnd <= atm.
    const auto lnd = c.manual_nodes[index(Component::Lnd)];
    const auto ice = c.manual_nodes[index(Component::Ice)];
    const auto atm = c.manual_nodes[index(Component::Atm)];
    const auto ocn = c.manual_nodes[index(Component::Ocn)];
    EXPECT_LE(atm + ocn, c.total_nodes);
    EXPECT_LE(ice + lnd, atm);
  }
}

TEST(PublishedData, HslbAllocationsRespectBudget) {
  for (const auto& c : published_cases()) {
    const auto atm = c.hslb_actual_nodes[index(Component::Atm)];
    const auto ocn = c.hslb_actual_nodes[index(Component::Ocn)];
    const auto ice = c.hslb_actual_nodes[index(Component::Ice)];
    const auto lnd = c.hslb_actual_nodes[index(Component::Lnd)];
    EXPECT_LE(atm + ocn, c.total_nodes);
    EXPECT_LE(ice + lnd, atm);
  }
}

TEST(PublishedData, ConstrainedOceanPicksAllowedCounts) {
  for (const auto& c : published_cases()) {
    if (!c.ocean_constrained) continue;
    const auto& allowed = ocean_allowed_nodes(c.resolution);
    const auto ocn = c.hslb_nodes[index(Component::Ocn)];
    EXPECT_NE(std::find(allowed.begin(), allowed.end(), ocn), allowed.end())
        << "ocn=" << ocn << " not in allowed set";
  }
}

TEST(PublishedData, ObservationsCoverEveryComponent) {
  for (Resolution r : {Resolution::Deg1, Resolution::EighthDeg}) {
    for (Component c : kComponents) {
      const auto& obs = published_observations(r, c);
      EXPECT_GE(obs.size(), 4u) << to_string(r) << "/" << to_string(c);
      for (const auto& o : obs) {
        EXPECT_GE(o.nodes, 1);
        EXPECT_GT(o.seconds, 0.0);
      }
    }
  }
}

TEST(AllowedSets, OceanDeg1Structure) {
  const auto& o = ocean_allowed_nodes(Resolution::Deg1);
  EXPECT_EQ(o.front(), 2);
  EXPECT_EQ(o.back(), 768);
  EXPECT_EQ(o[o.size() - 2], 480);
  for (std::size_t i = 0; i + 1 < o.size() - 1; ++i)
    EXPECT_EQ(o[i + 1] - o[i], 2);  // even numbers up to 480
}

TEST(AllowedSets, OceanEighthMatchesPaper) {
  const auto& o = ocean_allowed_nodes(Resolution::EighthDeg);
  EXPECT_EQ(o, (std::vector<long long>{480, 512, 2356, 3136, 4564, 6124, 19460}));
}

TEST(AllowedSets, AtmDeg1Structure) {
  const auto& a = atm_allowed_nodes_deg1();
  EXPECT_EQ(a.size(), 1639u);  // 1..1638 plus 1664
  EXPECT_EQ(a.front(), 1);
  EXPECT_EQ(a[1637], 1638);
  EXPECT_EQ(a.back(), 1664);
}

TEST(GroundTruth, ConvexAndWellFitted) {
  for (Resolution r : {Resolution::Deg1, Resolution::EighthDeg}) {
    for (Component c : kComponents) {
      EXPECT_TRUE(ground_truth(r, c).is_convex());
      // The paper reports R^2 "very close to 1"; ice is noisier (§IV-A).
      const double floor = c == Component::Ice ? 0.95 : 0.98;
      EXPECT_GT(ground_truth_r2(r, c), floor)
          << to_string(r) << "/" << to_string(c);
    }
  }
}

TEST(GroundTruth, FitReachesThePinnedModelsSse) {
  // The models are pinned constants of an earlier Fit of the published
  // points; the Fit of today must reach at least their SSE, up to rounding.
  for (Resolution r : {Resolution::Deg1, Resolution::EighthDeg}) {
    for (Component c : kComponents) {
      perf::SampleSet samples;
      double pinned_sse = 0.0, sum_y2 = 0.0;
      for (const auto& o : published_observations(r, c)) {
        const double n = static_cast<double>(o.nodes);
        samples.push_back({n, o.seconds});
        const double residual = o.seconds - ground_truth(r, c).eval(n);
        pinned_sse += residual * residual;
        sum_y2 += o.seconds * o.seconds;
      }
      EXPECT_LE(perf::fit(samples).sse,
                pinned_sse * (1.0 + 1e-9) + 1e-24 * sum_y2)
          << to_string(r) << "/" << to_string(c);
    }
  }
}

TEST(GroundTruth, InterpolatesPublishedPoints) {
  // The simulator must reproduce the published optimization landscape:
  // at published allocations the true curve is within ~20% of the published
  // time (ice excepted: the paper itself flags its noise).
  for (Resolution r : {Resolution::Deg1, Resolution::EighthDeg}) {
    for (Component c : {Component::Lnd, Component::Atm, Component::Ocn}) {
      for (const auto& o : published_observations(r, c)) {
        const double pred =
            ground_truth(r, c).eval(static_cast<double>(o.nodes));
        EXPECT_NEAR(pred, o.seconds, 0.2 * o.seconds + 1.0)
            << to_string(r) << "/" << to_string(c) << " at n=" << o.nodes;
      }
    }
  }
}

TEST(GroundTruth, MonotoneOverPublishedRange) {
  // All CESM components scale: more nodes never slower in the calibrated
  // range ("we did not observe increasing wall-clock times", §III-C).
  for (Resolution r : {Resolution::Deg1, Resolution::EighthDeg}) {
    for (Component c : kComponents) {
      const auto& m = ground_truth(r, c);
      const auto& obs = published_observations(r, c);
      long long lo = obs.front().nodes, hi = obs.front().nodes;
      for (const auto& o : obs) {
        lo = std::min(lo, o.nodes);
        hi = std::max(hi, o.nodes);
      }
      double prev = m.eval(static_cast<double>(lo));
      for (double n = static_cast<double>(lo) * 1.3; n < static_cast<double>(hi);
           n *= 1.3) {
        const double t = m.eval(n);
        EXPECT_LE(t, prev * 1.001);
        prev = t;
      }
    }
  }
}

}  // namespace
}  // namespace hslb::cesm

#include "cesm/data.hpp"

#include <array>
#include <map>
#include <vector>

#include "common/contracts.hpp"
#include "common/stats.hpp"

namespace hslb::cesm {

const char* to_string(Resolution r) {
  switch (r) {
    case Resolution::Deg1: return "1deg";
    case Resolution::EighthDeg: return "1/8deg";
  }
  return "?";
}

namespace {

// Component order everywhere: lnd, ice, atm, ocn (as in Table III rows).

PublishedCase deg1_128() {
  PublishedCase c;
  c.resolution = Resolution::Deg1;
  c.total_nodes = 128;
  c.ocean_constrained = true;
  c.manual_nodes = {24, 80, 104, 24};
  c.manual_seconds = {63.766, 109.054, 306.952, 362.669};
  c.manual_total = 416.006;
  c.hslb_nodes = {15, 89, 104, 24};
  c.hslb_predicted_seconds = {100.951, 102.972, 307.651, 365.649};
  c.hslb_predicted_total = 410.623;
  c.hslb_actual_nodes = c.hslb_nodes;
  c.hslb_actual_seconds = {100.202, 116.472, 308.699, 365.853};
  c.hslb_actual_total = 425.171;
  return c;
}

PublishedCase deg1_2048() {
  PublishedCase c;
  c.resolution = Resolution::Deg1;
  c.total_nodes = 2048;
  c.ocean_constrained = true;
  c.manual_nodes = {384, 1280, 1664, 384};
  c.manual_seconds = {5.777, 17.912, 61.987, 61.987};
  c.manual_total = 79.899;
  c.hslb_nodes = {71, 1454, 1525, 256};
  c.hslb_predicted_seconds = {22.693, 22.822, 61.662, 78.532};
  c.hslb_predicted_total = 84.484;
  c.hslb_actual_nodes = c.hslb_nodes;
  c.hslb_actual_seconds = {23.158, 18.242, 63.313, 79.139};
  c.hslb_actual_total = 86.471;
  return c;
}

PublishedCase eighth_8192() {
  PublishedCase c;
  c.resolution = Resolution::EighthDeg;
  c.total_nodes = 8192;
  c.ocean_constrained = true;
  c.manual_nodes = {486, 5350, 5836, 2356};
  c.manual_seconds = {147.397, 475.614, 2533.76, 3785.333};
  c.manual_total = 3785.333;
  c.hslb_nodes = {138, 4918, 5056, 3136};
  c.hslb_predicted_seconds = {487.853, 511.596, 2878.798, 2919.052};
  c.hslb_predicted_total = 3390.394;
  c.hslb_actual_nodes = c.hslb_nodes;
  c.hslb_actual_seconds = {457.052, 499.691, 2989.115, 2898.102};
  c.hslb_actual_total = 3488.806;
  return c;
}

PublishedCase eighth_32768() {
  PublishedCase c;
  c.resolution = Resolution::EighthDeg;
  c.total_nodes = 32768;
  c.ocean_constrained = true;
  c.manual_nodes = {2220, 24424, 26644, 6124};
  c.manual_seconds = {44.225, 214.203, 787.478, 1645.009};
  c.manual_total = 1645.009;
  c.hslb_nodes = {302, 13006, 13308, 19460};
  c.hslb_predicted_seconds = {232.158, 290.088, 1302.562, 712.525};
  c.hslb_predicted_total = 1592.649;
  c.hslb_actual_nodes = c.hslb_nodes;
  c.hslb_actual_seconds = {223.284, 311.195, 1301.136, 700.373};
  c.hslb_actual_total = 1612.331;
  return c;
}

PublishedCase eighth_8192_unconstrained() {
  PublishedCase c;
  c.resolution = Resolution::EighthDeg;
  c.total_nodes = 8192;
  c.ocean_constrained = false;
  c.has_manual = false;
  c.hslb_nodes = {137, 5238, 5375, 2817};
  c.hslb_predicted_seconds = {487.853, 489.904, 2727.934, 3216.924};
  c.hslb_predicted_total = 3217.837;
  c.hslb_actual_nodes = {146, 5287, 5433, 2759};
  c.hslb_actual_seconds = {417.162, 475.249, 2702.651, 3496.331};
  c.hslb_actual_total = 3496.331;
  return c;
}

PublishedCase eighth_32768_unconstrained() {
  PublishedCase c;
  c.resolution = Resolution::EighthDeg;
  c.total_nodes = 32768;
  c.ocean_constrained = false;
  c.has_manual = false;
  c.hslb_nodes = {299, 22657, 22956, 9812};
  c.hslb_predicted_seconds = {232.158, 232.735, 896.67, 1129.335};
  c.hslb_predicted_total = 1129.405;
  c.hslb_actual_nodes = {272, 20616, 20888, 11880};
  c.hslb_actual_seconds = {238.46, 231.631, 956.558, 1255.593};
  c.hslb_actual_total = 1255.593;
  return c;
}

}  // namespace

const std::vector<PublishedCase>& published_cases() {
  static const std::vector<PublishedCase> cases{
      deg1_128(),
      deg1_2048(),
      eighth_8192(),
      eighth_32768(),
      eighth_8192_unconstrained(),
      eighth_32768_unconstrained(),
  };
  return cases;
}

const std::vector<Observation>& published_observations(Resolution r,
                                                       Component c) {
  static const auto table = [] {
    std::map<std::pair<Resolution, std::size_t>, std::vector<Observation>> t;
    for (const auto& pc : published_cases()) {
      for (Component comp : kComponents) {
        auto& obs = t[{pc.resolution, index(comp)}];
        if (pc.has_manual) {
          obs.push_back(
              {pc.manual_nodes[index(comp)], pc.manual_seconds[index(comp)]});
        }
        obs.push_back({pc.hslb_actual_nodes[index(comp)],
                       pc.hslb_actual_seconds[index(comp)]});
      }
    }
    return t;
  }();
  const auto it = table.find({r, index(c)});
  HSLB_EXPECTS(it != table.end());
  return it->second;
}

const std::vector<long long>& ocean_allowed_nodes(Resolution r) {
  // Table I line 5 at 1 degree: O = {2, 4, ..., 480, 768}; §IV-B at 1/8
  // degree: "limited to a few handful of node counts ... as a result of
  // prior testing".
  static const auto deg1 = [] {
    std::vector<long long> o;
    for (long long n = 2; n <= 480; n += 2) o.push_back(n);
    o.push_back(768);
    return o;
  }();
  static const std::vector<long long> eighth{480,  512,  2356, 3136,
                                             4564, 6124, 19460};
  return r == Resolution::Deg1 ? deg1 : eighth;
}

const std::vector<long long>& atm_allowed_nodes_deg1() {
  // Table I line 6: A = {1, 2, ..., 1638, 1664}.
  static const auto a = [] {
    std::vector<long long> v;
    for (long long n = 1; n <= 1638; ++n) v.push_back(n);
    v.push_back(1664);
    return v;
  }();
  return a;
}

namespace {

struct Calibration {
  perf::Model model;
  double r2;
};

/// The ground-truth models, by resolution (1 degree, 1/8 degree) and
/// component: the variable-projection fit (perf::fit, default options) of
/// each component's published observations, pinned bit for bit as hex
/// floats, so a change to the Fit does not redraw the simulated world. The
/// 1-degree atm set has 3 distinct node counts for 4 parameters, so the data
/// do not identify its exponent: a fit may reach the same SSE at another c.
constexpr perf::Model kGroundTruth[2][4] = {
    {{0x1.7020141b8d632p+10, 0.0, 1.0, 0x1.19daa77dce093p+1},
     {0x1.06e14aaeca556p+13, 0.0, 1.0, 0x1.8d36d95e67f6ep+3},
     {0x1.ad9fc002ec2d8p+14, 0x1.53b279a780702p-10, 0x1.000000592bbe8p+0,
      0x1.5a7428841a633p+5},
     {0x1.de14700ac0d9ep+12, 0.0, 1.0, 0x1.6cd10489052bap+5}},
    {{0x1.cd934a867a5d9p+15, 0.0, 1.0, 0x1.64aef49ebfacbp+4},
     {0x1.a00609d24f666p+20, 0.0, 1.0, 0x1.3847219da30c3p+7},
     {0x1.98a2a2be9a66dp+23, 0x1.2d2b793c9d8cbp-10, 1.0,
      0x1.0ed0b5d38e941p+8},
     {0x1.f067248d455d7p+22, 0.0, 1.0, 0x1.88cc60ca55abcp+8}}};

const Calibration& calibration(Resolution r, Component c) {
  static const auto table = [] {
    std::map<std::pair<Resolution, std::size_t>, Calibration> t;
    for (Resolution res : {Resolution::Deg1, Resolution::EighthDeg}) {
      for (Component comp : kComponents) {
        const perf::Model& model =
            kGroundTruth[res == Resolution::Deg1 ? 0 : 1][index(comp)];
        std::vector<double> observed, predicted;
        for (const auto& o : published_observations(res, comp)) {
          observed.push_back(o.seconds);
          predicted.push_back(model.eval(static_cast<double>(o.nodes)));
        }
        t[{res, index(comp)}] =
            Calibration{model, stats::r_squared(observed, predicted)};
      }
    }
    return t;
  }();
  const auto it = table.find({r, index(c)});
  HSLB_EXPECTS(it != table.end());
  return it->second;
}

}  // namespace

const perf::Model& ground_truth(Resolution r, Component c) {
  return calibration(r, c).model;
}

double ground_truth_r2(Resolution r, Component c) {
  return calibration(r, c).r2;
}

}  // namespace hslb::cesm

// Reproduces Figure 3 of the paper: 1/8-degree resolution results for
// layout (1) — "human guess" (manual), HSLB-predicted, and HSLB-actual
// total times at 8192 and 32768 nodes, constrained and unconstrained
// ocean, rendered as a text bar chart.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cesm/pipeline.hpp"
#include "common/table.hpp"

namespace {

using namespace hslb;
using namespace hslb::cesm;

struct Series {
  std::string label;
  double manual = 0.0;  // 0 = none
  double predicted = 0.0;
  double actual = 0.0;
};

void bar(const char* name, double value, double scale) {
  if (value <= 0.0) return;
  const int width = std::max(1, static_cast<int>(value / scale * 50.0));
  std::printf("  %-22s %8.0f s |%s\n", name, value,
              std::string(static_cast<std::size_t>(width), '#').c_str());
}

}  // namespace

int main() {
  std::printf("=== Figure 3 reproduction: 1/8-degree, layout (1) ===\n\n");

  std::vector<Series> series;
  for (const auto& pub : published_cases()) {
    if (pub.resolution != Resolution::EighthDeg) continue;
    cesm::PipelineOptions opt;
    opt.ocean_constrained = pub.ocean_constrained;
    const auto res = run_pipeline(pub.resolution, pub.total_nodes, opt);
    Simulator oracle(pub.resolution);

    Series s;
    s.label = std::to_string(pub.total_nodes) + " nodes" +
              (pub.ocean_constrained ? "" : " (unconstrained ocn)");
    if (pub.has_manual) {
      std::array<double, 4> manual_true{};
      for (Component c : kComponents)
        manual_true[index(c)] =
            oracle.true_seconds(c, pub.manual_nodes[index(c)]);
      s.manual = layout_total(Layout::Hybrid, manual_true);
    }
    s.predicted = res.solution.predicted_total;
    s.actual = res.actual_total;
    series.push_back(s);

    std::printf("%s\n", s.label.c_str());
    std::printf("  paper: manual %s, predicted %.0f, actual %.0f\n",
                pub.has_manual ? Table::num(pub.manual_total, 0).c_str() : "-",
                pub.hslb_predicted_total, pub.hslb_actual_total);
    double scale = std::max({s.manual, s.predicted, s.actual});
    bar("human guess", s.manual, scale);
    bar("HSLB prediction", s.predicted, scale);
    bar("HSLB actual", s.actual, scale);
    std::printf("\n");
  }

  // Shape checks the figure supports.
  std::printf("claims:\n");
  for (const auto& s : series) {
    if (s.manual > 0.0) {
      const char* relation = s.actual <= s.manual ? "<= manual"
                             : s.actual <= 1.02 * s.manual
                                 ? "within 2% above manual"
                                 : "more than 2% above manual (!)";
      std::printf("  [%s] HSLB actual %s (%.0f vs %.0f s)\n", s.label.c_str(),
                  relation, s.actual, s.manual);
    }
  }
  return 0;
}

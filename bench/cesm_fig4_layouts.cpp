// Reproduces Figure 4 of the paper: predicted scaling of component layouts
// (1)-(3) at 1-degree resolution, based on the scaling curves of Figure 2.
//
// The paper predicts layouts 1 and 2 perform similarly while layout 3
// (fully sequential) is clearly worst, and reports R^2 = 1.0 between the
// layout-1 prediction and the experimental data. We fit one set of
// component models, solve the allocation MINLP for each layout over a node
// sweep, and compare the layout-1 predictions against "experimental"
// (simulated) runs.
#include <cstdio>
#include <vector>

#include "cesm/pipeline.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int main() {
  using namespace hslb;
  using namespace hslb::cesm;

  std::printf("=== Figure 4 reproduction: layouts 1-3 predicted scaling, 1 degree ===\n\n");

  // One gather+fit at the largest partition; reuse the models for the sweep
  // (fits interpolate across the whole node range).
  cesm::PipelineOptions fit_opt;
  const auto fitted = run_pipeline(Resolution::Deg1, 2048, fit_opt);
  std::array<perf::Model, 4> models;
  for (Component c : kComponents)
    models[index(c)] = fitted.fits[index(c)].model;

  const std::vector<long long> sweep{128, 256, 512, 1024, 2048};
  Table t({"nodes", "layout1 pred", "layout2 pred", "layout3 pred",
           "layout1 exp"});
  t.set_title("Predicted total seconds per layout (layout 1 also executed)");

  std::vector<double> l1_pred, l1_exp;
  for (long long n : sweep) {
    std::vector<std::string> row{Table::num(static_cast<long long>(n))};
    std::array<long long, 4> l1_nodes{};
    for (int l = 1; l <= 3; ++l) {
      auto p = make_problem(Resolution::Deg1, static_cast<Layout>(l), n, models);
      const auto sol = solve_layout(p);
      row.push_back(Table::num(sol.predicted_total, 1));
      if (l == 1) {
        l1_pred.push_back(sol.predicted_total);
        l1_nodes = sol.nodes;
      }
    }
    // The experiment is the coupled run Execute performs.
    Simulator sim(Resolution::Deg1);
    const double exp_total =
        sim.run_coupled(Layout::Hybrid, l1_nodes).total_seconds;
    l1_exp.push_back(exp_total);
    row.push_back(Table::num(exp_total, 1));
    t.add_row(std::move(row));
  }
  std::printf("%s\n", t.str().c_str());

  const double r2 = stats::r_squared(l1_exp, l1_pred);
  std::printf("paper: layouts 1 and 2 similar, layout 3 worst; "
              "R^2(prediction, experiment) for layout 1 = 1.0\n");
  std::printf("ours : R^2(prediction, experiment) for layout 1 = %.4f\n", r2);
  return 0;
}

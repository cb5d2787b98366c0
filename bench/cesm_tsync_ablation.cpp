// §III-A ablation: the synchronization tolerance T_sync (Table I, lines 9
// and 18-19) balances lnd and ice within a tolerance — and, as the paper
// warns, "may actually result in reduced performance of the algorithm
// because it imposes additional synchronization constraints on the
// solution."
//
// We sweep T_sync from off (infinity) down to 1 ms on the 1-degree
// layout-1 model and report the optimal predicted total, the allocation
// and the resulting lnd/ice gap. The rows are exact (cesm::solve_layout):
// every finite row keeps |T_lnd - T_ice| within its tolerance, and the
// run exits 1 if one does not or if tightening ever improves the total.
#include <cmath>
#include <cstdio>
#include <limits>

#include "cesm/layouts.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

int main() {
  using namespace hslb;
  using namespace hslb::cesm;

  std::printf("=== T_sync ablation (1 degree, layout 1, 512 nodes) ===\n\n");

  std::array<perf::Model, 4> models;
  for (Component c : kComponents)
    models[index(c)] = ground_truth(Resolution::Deg1, c);

  Table t({"tsync (s)", "predicted total s", "lnd time", "ice time",
           "|gap| s", "lnd/ice/atm/ocn nodes", "solve ms"});
  double off_total = 0.0;
  double prev_total = 0.0;
  bool ok = true;
  // The min-max objective already equalizes lnd and ice to within a small
  // natural gap; the constraint only binds (and §III-A's warning only
  // manifests) once the tolerance drops below that gap.
  for (double tsync : {std::numeric_limits<double>::infinity(), 5.0, 1.0,
                       0.02, 0.01, 0.005, 0.002, 0.001}) {
    auto p = make_problem(Resolution::Deg1, Layout::Hybrid, 512, models);
    p.tsync = tsync;
    const auto sol = solve_layout(p);
    const double lnd = sol.predicted_seconds[index(Component::Lnd)];
    const double ice = sol.predicted_seconds[index(Component::Ice)];
    const double gap = std::fabs(lnd - ice);
    if (!std::isfinite(tsync)) off_total = sol.predicted_total;
    if (gap > tsync || sol.predicted_total < prev_total) ok = false;
    prev_total = sol.predicted_total;
    t.add_row({std::isfinite(tsync) ? strings::format("%g", tsync) : "off",
               Table::num(sol.predicted_total, 3), Table::num(lnd, 3),
               Table::num(ice, 3), Table::num(gap, 4),
               strings::format("%lld/%lld/%lld/%lld", sol.nodes[0],
                               sol.nodes[1], sol.nodes[2], sol.nodes[3]),
               Table::num(1e3 * sol.seconds, 3)});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("claims: tightening T_sync never improves the optimum "
              "(baseline %.3f s) and every row keeps the lnd/ice gap within "
              "its tolerance: %s\n",
              off_total, ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

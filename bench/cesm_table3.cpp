// Reproduces Table III of the paper: detailed per-component timings for
// layout (1) at 1-degree (128 and 2048 nodes) and 1/8-degree (8192 and
// 32768 nodes), with and without the ocean node-count constraint.
//
// For every block we print, side by side:
//   * the paper's published numbers (transcribed in cesm/data.cpp), and
//   * our reproduction: the paper's manual allocation evaluated on the
//     simulated substrate, and our own HSLB pipeline's predicted/actual
//     results (gather -> fit -> exact layout solve -> execute).
//
// Absolute seconds agree closely because the simulator is calibrated
// through the published observations; the claims to check are the shapes:
// HSLB matches or beats manual, and dropping the ocean constraint at 32k
// nodes buys a large improvement (~25-40% in the paper).
#include <cstdio>

#include "cesm/pipeline.hpp"
#include "common/table.hpp"

namespace {

using namespace hslb;
using namespace hslb::cesm;

void run_case(const PublishedCase& pub) {
  cesm::PipelineOptions opt;
  opt.ocean_constrained = pub.ocean_constrained;
  const auto res = run_pipeline(pub.resolution, pub.total_nodes, opt);
  Simulator oracle(pub.resolution);

  Table t({"component", "paper manual n/s", "our manual s", "paper HSLB n",
           "our HSLB n", "paper pred s", "our pred s", "paper actual s",
           "our actual s"});
  t.set_title(std::string("Table III block: ") + to_string(pub.resolution) +
              ", " + std::to_string(pub.total_nodes) + " nodes" +
              (pub.ocean_constrained ? "" : ", unconstrained ocean nodes"));

  std::array<double, 4> manual_true{};
  for (Component c : kComponents) {
    const auto i = index(c);
    std::string paper_manual = "-";
    std::string our_manual = "-";
    if (pub.has_manual) {
      paper_manual = std::to_string(pub.manual_nodes[i]) + "/" +
                     Table::num(pub.manual_seconds[i], 1);
      manual_true[i] = oracle.true_seconds(c, pub.manual_nodes[i]);
      our_manual = Table::num(manual_true[i], 1);
    }
    t.add_row({to_string(c), paper_manual, our_manual,
               Table::num(static_cast<long long>(pub.hslb_nodes[i])),
               Table::num(static_cast<long long>(res.solution.nodes[i])),
               Table::num(pub.hslb_predicted_seconds[i], 1),
               Table::num(res.solution.predicted_seconds[i], 1),
               Table::num(pub.hslb_actual_seconds[i], 1),
               Table::num(res.actual_seconds[i], 1)});
  }
  t.add_rule();
  t.add_row({"total",
             pub.has_manual ? Table::num(pub.manual_total, 1) : "-",
             pub.has_manual
                 ? Table::num(layout_total(Layout::Hybrid, manual_true), 1)
                 : "-",
             "", "", Table::num(pub.hslb_predicted_total, 1),
             Table::num(res.solution.predicted_total, 1),
             Table::num(pub.hslb_actual_total, 1),
             Table::num(res.actual_total, 1)});
  std::printf("%s", t.str().c_str());
  std::printf("  solver: exact layout solve, certified optimal, %.3f ms\n\n",
              1e3 * res.solution.seconds);
}

}  // namespace

int main() {
  std::printf("=== Table III reproduction (layout 1, HSLB vs manual) ===\n\n");
  for (const auto& pub : published_cases()) run_case(pub);

  // The §IV-B headline: unconstrained ocean at 32,768 nodes.
  const auto& cases = published_cases();
  const auto& con = cases[3];
  const auto& unc = cases[5];
  std::printf("paper: unconstrained-ocean predicted improvement at 32768 "
              "nodes: %.0f%% (1593 -> 1129 s); actual: %.0f%% (1612 -> 1256 s)\n",
              100.0 * (1.0 - unc.hslb_predicted_total / con.hslb_predicted_total),
              100.0 * (1.0 - unc.hslb_actual_total / con.hslb_actual_total));
  cesm::PipelineOptions copt, uopt;
  copt.ocean_constrained = true;
  uopt.ocean_constrained = false;
  const auto rcon = run_pipeline(Resolution::EighthDeg, 32768, copt);
  const auto runc = run_pipeline(Resolution::EighthDeg, 32768, uopt);
  std::printf("ours : unconstrained-ocean predicted improvement at 32768 "
              "nodes: %.0f%% (%.0f -> %.0f s); actual: %.0f%% (%.0f -> %.0f s)\n",
              100.0 * (1.0 - runc.solution.predicted_total /
                                 rcon.solution.predicted_total),
              rcon.solution.predicted_total, runc.solution.predicted_total,
              100.0 * (1.0 - runc.actual_total / rcon.actual_total),
              rcon.actual_total, runc.actual_total);
  return 0;
}

// CESM example: load-balance a coupled climate run with HSLB.
//
//   $ ./build/examples/cesm_layout [nodes] [layout 1|2|3] [resolution 1|8]
//
// Runs the four pipeline steps for the chosen configuration, prints the
// component allocation next to the paper's Figure-1 layout sketch, and
// renders the Execute step's actual runtime trace as a Gantt chart.
#include <cstdio>
#include <cstdlib>

#include "cesm/pipeline.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace hslb;
  using namespace hslb::cesm;

  const long long nodes = argc > 1 ? std::atoll(argv[1]) : 1024;
  const auto layout =
      static_cast<Layout>(argc > 2 ? std::atoi(argv[2]) : 1);
  const Resolution res = (argc > 3 && std::atoi(argv[3]) == 8)
                             ? Resolution::EighthDeg
                             : Resolution::Deg1;

  std::printf("CESM %s, %s, %lld nodes\n\n", to_string(res), to_string(layout),
              nodes);

  cesm::PipelineOptions opt;
  opt.layout = layout;
  // A handful of coupling intervals keeps the Gantt chart readable; the
  // CLI's default run uses 24 (one simulated day at hourly coupling).
  opt.coupling_intervals = 4;
  const auto result = run_pipeline(res, nodes, opt);

  Table t({"component", "nodes", "fit R^2", "predicted s", "actual s"});
  for (Component c : kComponents) {
    const auto i = index(c);
    t.add_row({to_string(c),
               Table::num(static_cast<long long>(result.solution.nodes[i])),
               Table::num(result.fits[i].r2, 4),
               Table::num(result.solution.predicted_seconds[i], 2),
               Table::num(result.actual_seconds[i], 2)});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("total: predicted %.2f s, actual %.2f s "
              "(exact layout solve: certified optimal, %.3f ms)\n\n",
              result.solution.predicted_total, result.actual_total,
              1e3 * result.solution.seconds);

  // The executed schedule, straight from the runtime: one trace event per
  // component per coupling interval on the machine the solver laid out.
  const sim::Trace& trace = result.coupled.trace;
  std::printf("executed schedule on %s (%d coupling intervals):\n%s\n",
              result.report.machine.c_str(), opt.coupling_intervals,
              trace.gantt().c_str());
  std::printf("makespan %.2f s, machine efficiency %.2f, node imbalance %.2f\n",
              trace.makespan(), trace.efficiency(), trace.imbalance());
  return 0;
}

// Shared execution-quality metrics: the optimal-load-balance criteria of
// arXiv:2104.01688 computed one way and reported everywhere.
//
// Every PipelineReport and bench row derives its makespan/efficiency/
// imbalance numbers from this one struct, so a number named "percent
// imbalance" means exactly the same thing in the CLI report,
// BENCH_solver.json, and the scenario fuzzer:
//
//   * imbalance           — max/mean - 1 of busy time over units that were
//                           ever busy (the classic load-imbalance ratio);
//   * percent_imbalance   — lambda = (max / mean - 1) x 100 with the mean
//                           over ALL units, idle ones included, so
//                           unallocated capacity counts against the
//                           schedule (arXiv:2104.01688's primary
//                           criterion; lambda = 0 is optimal balance);
//   * sigma_percent       — (stddev / mean) x 100 over all units, the
//                           paper's secondary spread criterion (unlike
//                           lambda it also penalizes under-loaded units).
#pragma once

#include <string>

namespace hslb::sim {
struct Trace;
}

namespace hslb {

struct Metrics {
  double makespan = 0.0;
  /// Useful busy unit-seconds (node-seconds for a trace).
  double busy_unit_seconds = 0.0;
  /// busy_unit_seconds / (units x makespan); 1 for an empty schedule.
  double efficiency = 0.0;
  /// max/mean - 1 of busy time over units that were ever busy.
  double imbalance = 0.0;
  /// lambda of arXiv:2104.01688 (see header comment). Percent.
  double percent_imbalance = 0.0;
  /// (stddev / mean) x 100 of busy time over all units. Percent.
  double sigma_percent = 0.0;

  /// Metrics of an execution trace. The makespan, busy-seconds,
  /// efficiency, imbalance, and percent-imbalance values are exactly the
  /// trace's own (bit-identical to the pre-refactor per-field reads).
  static Metrics from_trace(const sim::Trace& trace);

  /// One-line human-readable rendering.
  std::string str() const;
};

}  // namespace hslb

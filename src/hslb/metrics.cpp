#include "hslb/metrics.hpp"

#include <vector>

#include "common/stats.hpp"
#include "common/strings.hpp"
#include "sim/trace.hpp"

namespace hslb {

namespace {

/// sigma over *all* units: (stddev / mean) x 100, 0 when degenerate.
double sigma_of(const std::vector<double>& busy) {
  if (busy.size() < 2) return 0.0;
  const double mean = stats::mean(busy);
  if (mean <= 0.0) return 0.0;
  return stats::stddev(busy) / mean * 100.0;
}

}  // namespace

Metrics Metrics::from_trace(const sim::Trace& trace) {
  // The headline fields delegate to the trace's own accessors so existing
  // reports stay bit-identical through the Metrics refactor; only
  // sigma_percent is computed here (the trace never reported it).
  Metrics m;
  m.makespan = trace.makespan();
  m.busy_unit_seconds = trace.busy_node_seconds();
  m.efficiency = trace.efficiency();
  m.imbalance = trace.imbalance();
  m.percent_imbalance = trace.percent_imbalance();
  m.sigma_percent = sigma_of(trace.node_busy());
  return m;
}

std::string Metrics::str() const {
  return strings::format(
      "makespan %.3f s, busy %.3f unit-s, efficiency %.3f, imbalance %.3f, "
      "lambda %.1f%%, sigma %.1f%%",
      makespan, busy_unit_seconds, efficiency, imbalance, percent_imbalance,
      sigma_percent);
}

}  // namespace hslb

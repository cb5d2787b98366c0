// The benchmark's workloads. Each one is a closed loop: a single client
// thread issues op i, waits for it, checks its outputs, then issues op i+1.
// Every input is drawn from the run's --seed during setup().
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Per-layer counts and seconds of one op; they add up over ops.
using Layers = std::map<std::string, double>;

struct OpOutcome {
  /// Wall time of the public calls the op makes, timed by the client.
  double latency_s = 0.0;
  /// First failed output check; empty when every check passed.
  std::string failure;
  /// Simulated HSLB makespan / DLB makespan on the same noise draws
  /// (0 = the op has no dynamic baseline).
  double hslb_over_dlb = 0.0;
  /// Filled only when the op ran with a tracer.
  Layers layers;
};

struct Config {
  std::uint64_t seed = 1;
  /// Tiny instances and short prefixes, for the self-test.
  bool toy = false;
  /// Plants a wrong answer in the outputs the checks see:
  /// "lp-objective" (objective off by 1e-6 relative) or "over-budget"
  /// (one allocation gets more nodes than the budget).
  std::string plant;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Draws the inputs from the seed, builds what the ops need (models,
  /// request scripts, a primed service) and runs one untimed warm-up op.
  virtual void setup() = 0;

  /// Runs op `i` of the seeded stream. `tracer` is null in untraced runs;
  /// when set, the op records spans and fills OpOutcome::layers.
  virtual OpOutcome run_op(std::size_t i, Tracer* tracer) = 0;

  /// Ops every run completes, whatever its length, so that deterministic
  /// counts always cover the same work.
  virtual std::size_t prefix_ops() const = 0;

  /// One line on what an op is, for the report.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> make_pipeline_workload(const Config& config,
                                                 bool adaptive);
std::unique_ptr<Workload> make_service_workload(const Config& config);
std::unique_ptr<Workload> make_lp_workload(const Config& config);

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench

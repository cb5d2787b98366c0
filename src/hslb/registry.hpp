// Substrate registry: name -> factory for hslb::Application.
//
// A *substrate* is a workload family the HSLB pipeline can balance (FMO
// fragments, CESM coupled components, an FMM octree, an AMReX mesh...).
// Each registers a factory that builds a ready-to-run Application from a
// declarative ScenarioSpec, so the CLI, benches, the allocation service,
// and the scenario fuzzer all construct workloads through one seam
// instead of per-command if/else chains.
//
// Adding a substrate is: implement hslb::Application (and optionally
// BaselineReporter), then
//
//   SubstrateRegistry::instance().add(
//       {"mine", "one-line description", {"variant-a", "variant-b"}},
//       [](const ScenarioSpec& spec) { return make_my_application(spec); });
//
// Registration is explicit (call register_builtin_substrates() from
// src/substrates/) rather than static-initializer magic, so static
// linking never silently drops a substrate.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "hslb/objective.hpp"
#include "hslb/pipeline.hpp"

namespace hslb {

/// Declarative description of one scenario draw: which substrate/variant,
/// how big, how noisy, and what goes wrong at runtime.  Factories map
/// this onto their own option structs; fields a substrate has no use for
/// are ignored (e.g. CESM sizes itself from the variant, not `tasks`).
struct ScenarioSpec {
  std::string substrate;
  std::string variant;  // empty = substrate default
  /// Workload size knob (fragments / blocks / tree tasks); 0 = default.
  long long tasks = 0;
  /// Machine size in nodes; 0 = substrate default for `tasks`.
  long long nodes = 0;

  /// Seed for workload construction (geometry, tree shape, clustering).
  unsigned long long system_seed = 3;

  // Gather / fit / solve.
  unsigned long long bench_seed = 42;
  double bench_noise_cv = 0.03;
  long long fit_points = 5;
  /// Timed runs per (task, node count) in the Gather, and per probed size
  /// of FMO's dimer probes.
  std::size_t gather_repetitions = 1;
  /// Read by nothing: every Solve that can be certified is. Kept for
  /// callers that still set it.
  bool minlp = false;
  Objective objective = Objective::MinMax;

  // Execution.
  double noise_cv = 0.02;
  unsigned long long run_seed = 7;
  double straggler_cv = 0.0;
  long long fail_node = -1;
  double fail_time = 0.0;
  double fail_downtime = std::numeric_limits<double>::infinity();

  // Machine extensions (infinite/zero = off, matching sim::Machine).
  double link_gb_per_s = std::numeric_limits<double>::infinity();
  double memory_gb_per_node = std::numeric_limits<double>::infinity();
  double page_s_per_gb = 0.0;
  /// Pin those machine charges into the Solve's models (the wave
  /// substrates: fmo, fmm, amrex); false = the compute-only model, while
  /// the run still charges them.
  bool machine_cost_terms = true;

  /// Adaptive-rebalance policy for the epoch path.
  RebalancePolicy rebalance;

  /// The engine options a run of this scenario takes on `threads` workers:
  /// its gather repetitions and rebalance policy.
  PipelineOptions pipeline_options(std::size_t threads) const;

  /// Compact one-line rendering (used in fuzzer counterexample reports).
  std::string str() const;
};

/// Catalogue entry for `hslb substrates` and fuzzer sweeps.
struct SubstrateInfo {
  std::string name;
  std::string description;
  std::vector<std::string> variants;
};

using SubstrateFactory =
    std::function<std::shared_ptr<Application>(const ScenarioSpec&)>;

class SubstrateRegistry {
 public:
  /// The process-wide registry.
  static SubstrateRegistry& instance();

  /// Register (or replace) a substrate.
  void add(SubstrateInfo info, SubstrateFactory factory);

  bool contains(const std::string& name) const;
  /// Catalogue entry, or nullptr when unknown.
  const SubstrateInfo* find(const std::string& name) const;
  /// All registered substrates, sorted by name.
  std::vector<SubstrateInfo> list() const;

  /// Build an Application for `spec`; throws std::invalid_argument
  /// listing the registered names when spec.substrate is unknown.
  std::shared_ptr<Application> make(const ScenarioSpec& spec) const;

 private:
  struct Entry {
    SubstrateInfo info;
    SubstrateFactory factory;
  };
  std::vector<Entry> entries_;
};

/// Optional side-interface for substrates that also run a dynamic
/// baseline during execute(): lets generic tooling (the fuzzer, `hslb
/// run`) compare HSLB against DLB without knowing the substrate.
/// dynamic_cast from the Application pointer to discover it.
class BaselineReporter {
 public:
  virtual ~BaselineReporter() = default;
  /// End-to-end seconds of the HSLB-planned execution.
  virtual double hslb_total_seconds() = 0;
  /// End-to-end seconds of the dynamic (DLB-style) baseline on the same
  /// workload and noise draws.
  virtual double dlb_total_seconds() = 0;
};

}  // namespace hslb

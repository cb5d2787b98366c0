#include "substrates/registry_builtins.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "amrex/workload.hpp"
#include "cesm/pipeline.hpp"
#include "common/contracts.hpp"
#include "fmm/workload.hpp"
#include "fmo/driver.hpp"
#include "fmo/scenario.hpp"
#include "hslb/registry.hpp"
#include "hslb/waveapp.hpp"

namespace hslb::substrates {

namespace {

bool machine_extended(const ScenarioSpec& spec) {
  return std::isfinite(spec.link_gb_per_s) ||
         std::isfinite(spec.memory_gb_per_node);
}

sim::Machine extended_machine(const ScenarioSpec& spec, long long nodes) {
  auto mach = sim::Machine::intrepid_partition(static_cast<std::size_t>(nodes));
  mach.link_gb_per_s = spec.link_gb_per_s;
  mach.memory_gb_per_node = spec.memory_gb_per_node;
  mach.page_s_per_gb = spec.page_s_per_gb;
  return mach;
}

/// The spec's machine (when extended) and execution perturbations.
ExecutionOptions execution_options(const ScenarioSpec& spec, long long nodes) {
  ExecutionOptions opt;
  opt.noise_cv = spec.noise_cv;
  opt.seed = spec.run_seed;
  opt.straggler_cv = spec.straggler_cv;
  opt.fail_node = spec.fail_node;
  opt.fail_time = spec.fail_time;
  opt.fail_downtime = spec.fail_downtime;
  if (machine_extended(spec)) opt.machine = extended_machine(spec, nodes);
  return opt;
}

std::shared_ptr<Application> make_fmo(const ScenarioSpec& spec) {
  const long long fragments = spec.tasks > 0 ? spec.tasks : 24;
  const long long nodes = spec.nodes > 0 ? spec.nodes : 16 * fragments;
  auto sys = fmo::make_system(spec.variant,
                              static_cast<std::size_t>(fragments),
                              spec.system_seed);

  fmo::PipelineOptions opt;
  opt.fit_points = static_cast<std::size_t>(spec.fit_points);
  opt.repetitions = spec.gather_repetitions;
  opt.bench_noise_cv = spec.bench_noise_cv;
  opt.seed = spec.bench_seed;
  opt.objective = spec.objective;
  opt.machine_cost_terms = spec.machine_cost_terms;
  static_cast<ExecutionOptions&>(opt.run) = execution_options(spec, nodes);
  return fmo::make_application(std::move(sys), fmo::CostModel{}, nodes,
                               std::move(opt));
}

cesm::Layout cesm_layout(const std::string& variant) {
  if (variant.empty() || variant == "layout1") return cesm::Layout::Hybrid;
  if (variant == "layout2") return cesm::Layout::SequentialAtmGroup;
  if (variant == "layout3") return cesm::Layout::FullySequential;
  throw std::invalid_argument("unknown cesm variant '" + variant +
                              "' (known: layout1, layout2, layout3)");
}

std::shared_ptr<Application> make_cesm(const ScenarioSpec& spec) {
  const long long nodes = spec.nodes > 0 ? spec.nodes : 128;

  cesm::PipelineOptions opt;
  opt.layout = cesm_layout(spec.variant);
  opt.fit_points = static_cast<std::size_t>(spec.fit_points);
  opt.sim.noise_cv = spec.noise_cv;
  opt.sim.seed = spec.run_seed;
  opt.straggler_cv = spec.straggler_cv;
  opt.fail_node = spec.fail_node;
  opt.fail_time = spec.fail_time;
  opt.fail_downtime = spec.fail_downtime;
  opt.link_gb_per_s = spec.link_gb_per_s;
  return cesm::make_application(cesm::Resolution::Deg1, nodes, std::move(opt));
}

WaveOptions wave_options(const ScenarioSpec& spec, long long nodes) {
  WaveOptions opt;
  static_cast<ExecutionOptions&>(opt) = execution_options(spec, nodes);
  opt.fit_points = spec.fit_points;
  opt.bench_noise_cv = spec.bench_noise_cv;
  opt.bench_seed = spec.bench_seed;
  opt.objective = spec.objective;
  opt.machine_cost_terms = spec.machine_cost_terms;
  return opt;
}

std::shared_ptr<Application> make_fmm(const ScenarioSpec& spec) {
  fmm::TreeOptions tree;
  if (!spec.variant.empty()) tree.variant = spec.variant;
  if (spec.tasks > 0) tree.tasks = spec.tasks;
  tree.seed = spec.system_seed;
  auto wl = fmm::tree_workload(tree);

  const long long nodes = spec.nodes > 0 ? spec.nodes : 8 * tree.tasks;
  return std::make_shared<WaveApplication>(std::move(wl), nodes,
                                           wave_options(spec, nodes));
}

std::shared_ptr<Application> make_amrex(const ScenarioSpec& spec) {
  amrex::MeshOptions mesh;
  if (!spec.variant.empty()) mesh.variant = spec.variant;
  if (spec.tasks > 0) mesh.blocks = spec.tasks;
  mesh.seed = spec.system_seed;
  auto wl = amrex::mesh_workload(mesh);

  const long long nodes = spec.nodes > 0 ? spec.nodes : 8 * mesh.blocks;
  return std::make_shared<WaveApplication>(std::move(wl), nodes,
                                           wave_options(spec, nodes));
}

}  // namespace

void register_builtin_substrates() {
  static const bool registered = [] {
    auto& reg = SubstrateRegistry::instance();
    reg.add({"fmo",
             "FMO fragment SCF waves (the paper's substrate)",
             fmo::system_variants()},
            &make_fmo);
    reg.add({"cesm",
             "CESM coupled climate components at 1 degree",
             {"layout1", "layout2", "layout3"}},
            &make_cesm);
    reg.add({"fmm",
             "FMM-style adaptive octree traversal (lbcost-weighted subtrees)",
             {"uniform", "adaptive"}},
            &make_fmm);
    reg.add({"amrex",
             "AMReX-style mesh+particle steps (fluid + clustered particles)",
             {"uniform", "clustered"}},
            &make_amrex);
    return true;
  }();
  (void)registered;
}

}  // namespace hslb::substrates

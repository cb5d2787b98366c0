#include "hslb/registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/strings.hpp"
#include "hslb/objective.hpp"

namespace hslb {

PipelineOptions ScenarioSpec::pipeline_options(std::size_t threads) const {
  PipelineOptions opt;
  opt.threads = threads;
  opt.gather_repetitions = gather_repetitions;
  opt.rebalance = rebalance;
  return opt;
}

std::string ScenarioSpec::str() const {
  // tasks and nodes of 0 leave the size to the factory; the report's
  // machine line states what it resolved, so the placeholders stay out.
  std::string s = strings::format(
      "%s/%s", substrate.c_str(), variant.empty() ? "default" : variant.c_str());
  if (tasks > 0) s += strings::format(" tasks=%lld", tasks);
  if (nodes > 0) s += strings::format(" nodes=%lld", nodes);
  s += strings::format(
      " sys_seed=%llu bench_seed=%llu fit_points=%lld %s noise_cv=%.3g "
      "run_seed=%llu",
      system_seed, bench_seed, fit_points,
      objective == Objective::MinMax
          ? "minmax"
          : (objective == Objective::MaxMin ? "maxmin" : "minsum"),
      noise_cv, run_seed);
  if (gather_repetitions != 1)
    s += strings::format(" reps=%zu", gather_repetitions);
  if (straggler_cv > 0.0)
    s += strings::format(" straggler_cv=%.3g", straggler_cv);
  if (fail_node >= 0)
    s += strings::format(" fail_node=%lld fail_time=%.3g", fail_node,
                         fail_time);
  if (std::isfinite(link_gb_per_s))
    s += strings::format(" link_gb=%.3g", link_gb_per_s);
  if (std::isfinite(memory_gb_per_node))
    s += strings::format(" mem_gb=%.3g", memory_gb_per_node);
  if (page_s_per_gb > 0.0)
    s += strings::format(" page_s_per_gb=%.3g", page_s_per_gb);
  if (!machine_cost_terms) s += " compute_only_model";
  if (rebalance.adaptive) s += " adaptive";
  return s;
}

SubstrateRegistry& SubstrateRegistry::instance() {
  static SubstrateRegistry registry;
  return registry;
}

void SubstrateRegistry::add(SubstrateInfo info, SubstrateFactory factory) {
  for (Entry& e : entries_)
    if (e.info.name == info.name) {
      e.info = std::move(info);
      e.factory = std::move(factory);
      return;
    }
  entries_.push_back({std::move(info), std::move(factory)});
}

bool SubstrateRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

const SubstrateInfo* SubstrateRegistry::find(const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.info.name == name) return &e.info;
  return nullptr;
}

std::vector<SubstrateInfo> SubstrateRegistry::list() const {
  std::vector<SubstrateInfo> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.info);
  std::sort(out.begin(), out.end(),
            [](const SubstrateInfo& a, const SubstrateInfo& b) {
              return a.name < b.name;
            });
  return out;
}

std::shared_ptr<Application> SubstrateRegistry::make(
    const ScenarioSpec& spec) const {
  for (const Entry& e : entries_)
    if (e.info.name == spec.substrate) return e.factory(spec);
  std::string known;
  for (const SubstrateInfo& info : list()) {
    if (!known.empty()) known += ", ";
    known += info.name;
  }
  throw std::invalid_argument(strings::format(
      "unknown substrate '%s' (registered: %s)", spec.substrate.c_str(),
      known.empty() ? "none" : known.c_str()));
}

}  // namespace hslb

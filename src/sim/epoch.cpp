#include "sim/epoch.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/stats.hpp"

namespace hslb::sim {

EpochCore::EpochCore(Machine machine, Perturbation perturbation,
                     long long budget)
    : machine_(std::move(machine)),
      perturbation_(std::move(perturbation)),
      budget_(budget),
      segment_{0, machine_.nodes} {
  HSLB_EXPECTS(budget_ >= 1);
  HSLB_EXPECTS(static_cast<std::size_t>(budget_) <= machine_.nodes);
  trace_.machine = machine_.name;
  trace_.nodes = machine_.nodes;
  trace_.cores_per_node = machine_.cores_per_node;
}

long long EpochCore::budget() const {
  return std::min<long long>(budget_, static_cast<long long>(segment_.count));
}

std::vector<NodeSet> EpochCore::pack(std::span<const long long> sizes) const {
  std::vector<NodeSet> blocks;
  blocks.reserve(sizes.size());
  std::size_t offset = segment_.first;
  for (long long n : sizes) {
    HSLB_EXPECTS(n >= 1);
    blocks.push_back({offset, static_cast<std::size_t>(n)});
    offset += static_cast<std::size_t>(n);
  }
  HSLB_EXPECTS(static_cast<long long>(offset - segment_.first) <= budget());
  return blocks;
}

EpochCore::Epoch EpochCore::run(const Runtime& rt, std::size_t barrier) {
  EpochOptions options;
  options.start = clock_;
  options.stop_on_failure = true;
  Epoch epoch;
  epoch.result = rt.run(perturbation_, options, &epoch.state);
  const RunResult& rr = epoch.result;
  trace_.append(rr.trace);
  restarts_ += rr.restarts;
  comm_seconds_ += rr.comm_seconds;
  page_seconds_ += rr.page_seconds;
  if (!rr.failure_paused) {
    clock_ = barrier == kMakespan ? rr.makespan : rr.tasks[barrier].end;
    return epoch;
  }
  const auto fn = static_cast<std::size_t>(perturbation_.fail_node);
  HSLB_ASSERT(fn >= segment_.first && fn < segment_.end());
  const std::size_t left = fn - segment_.first;
  const std::size_t right = segment_.end() - fn - 1;
  if (left >= right) {
    segment_.count = left;
  } else {
    segment_ = {fn + 1, right};
  }
  for (std::size_t n = segment_.first; n < segment_.end(); ++n)
    clock_ = std::max(clock_, epoch.state.node_free[n]);
  return epoch;
}

WaveRun EpochCore::run_wave(const std::vector<WaveSlot>& slots,
                            const std::string& phase, double sync_seconds) {
  // Slot i is runtime task i; the barrier comes last.
  Runtime rt(machine_);
  std::vector<std::size_t> ids;
  ids.reserve(slots.size());
  for (const auto& s : slots) {
    ids.push_back(
        rt.add_task(s.name, s.seconds, s.nodes, {}, phase, false, s.demand));
  }
  const std::size_t sync =
      rt.add_task("sync", sync_seconds, segment_, std::move(ids), phase, true);
  const Epoch epoch = run(rt, sync);

  WaveRun out;
  out.failure = epoch.result.failure_paused;
  std::vector<double> durations;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!epoch.state.ran[i]) continue;
    const auto& ts = epoch.result.tasks[i];
    out.ran.emplace_back(slots[i].key, ts.end - ts.start);
    durations.push_back(ts.end - ts.start);
  }
  for (const auto& [id, seconds] : epoch.state.observed)
    out.observed.emplace_back(slots[id].key, seconds);
  if (!out.failure && !durations.empty())
    out.imbalance = stats::imbalance(durations);
  return out;
}

double EpochCore::migrate(double volume_gb) {
  const double stall = machine_.migration_seconds(volume_gb);
  if (stall > 0.0) {
    trace_.events.push_back({"migrate", "rebalance", segment_.first,
                             segment_.count, clock_, clock_ + stall, false});
    clock_ += stall;
  }
  return stall;
}

}  // namespace hslb::sim

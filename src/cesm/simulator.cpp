#include "cesm/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/stats.hpp"

namespace hslb::cesm {

Simulator::Simulator(Resolution r, SimulatorOptions options)
    : resolution_(r),
      options_(options),
      noise_(options.noise_cv, options.seed),
      ice_noise_(options.ice_noise_cv, options.seed ^ 0x9e3779b97f4a7c15ull) {}

double Simulator::true_seconds(Component c, long long nodes) const {
  HSLB_EXPECTS(nodes >= 1);
  return ground_truth(resolution_, c).eval(static_cast<double>(nodes));
}

double Simulator::benchmark(Component c, long long nodes) {
  const double truth = true_seconds(c, nodes);
  return c == Component::Ice ? ice_noise_.perturb(truth) : noise_.perturb(truth);
}

double Simulator::benchmark_at(Component c, long long nodes,
                               std::uint64_t rep) const {
  const double cv =
      c == Component::Ice ? options_.ice_noise_cv : options_.noise_cv;
  const std::uint64_t seed =
      derive_seed(derive_seed(options_.seed, index(c)),
                  static_cast<std::uint64_t>(nodes) * 4096 + rep);
  sim::NoiseModel noise(cv, seed);
  return noise.perturb(true_seconds(c, nodes));
}

std::array<double, 4> Simulator::run_components(
    const std::array<long long, 4>& nodes) {
  std::array<double, 4> out{};
  for (Component c : kComponents) out[index(c)] = benchmark(c, nodes[index(c)]);
  return out;
}

double Simulator::run_total(Layout layout,
                            const std::array<long long, 4>& nodes) {
  return layout_total(layout, run_components(nodes));
}

long long Simulator::layout_width(Layout layout,
                                  const std::array<long long, 4>& nodes) {
  for (Component c : kComponents) HSLB_EXPECTS(nodes[index(c)] >= 1);
  const long long lnd = nodes[index(Component::Lnd)];
  const long long ice = nodes[index(Component::Ice)];
  const long long atm = nodes[index(Component::Atm)];
  const long long ocn = nodes[index(Component::Ocn)];
  switch (layout) {
    case Layout::Hybrid:
      // ice || lnd share the atmosphere block; ocean runs beside it.
      return std::max(atm, ice + lnd) + ocn;
    case Layout::SequentialAtmGroup:
      return std::max({ice, lnd, atm}) + ocn;
    case Layout::FullySequential:
      return std::max({ice, lnd, atm, ocn});
  }
  return 0;
}

sim::Machine Simulator::machine_for(Layout layout,
                                    const std::array<long long, 4>& nodes) {
  return sim::Machine{
      "intrepid", static_cast<std::size_t>(layout_width(layout, nodes)), 4};
}

std::array<sim::NodeSet, 4> Simulator::blocks_for(
    Layout layout, const std::array<long long, 4>& nodes, std::size_t offset) {
  for (Component c : kComponents) HSLB_EXPECTS(nodes[index(c)] >= 1);
  const auto count = [&](Component c) {
    return static_cast<std::size_t>(nodes[index(c)]);
  };
  // Processor blocks (Figure 1), packed from `offset`. In the hybrid layout
  // ice and lnd split the atmosphere block; in layout 2 the chain reuses
  // one block; layout 3 runs everything on overlapping full-machine sets.
  const std::size_t atm_block =
      layout == Layout::Hybrid
          ? std::max(count(Component::Atm),
                     count(Component::Ice) + count(Component::Lnd))
          : std::max({count(Component::Ice), count(Component::Lnd),
                      count(Component::Atm)});
  std::array<sim::NodeSet, 4> blocks;
  blocks[index(Component::Ice)] = {offset, count(Component::Ice)};
  blocks[index(Component::Lnd)] = {
      layout == Layout::Hybrid ? offset + count(Component::Ice) : offset,
      count(Component::Lnd)};
  blocks[index(Component::Atm)] = {offset, count(Component::Atm)};
  blocks[index(Component::Ocn)] = {
      layout == Layout::FullySequential ? offset : offset + atm_block,
      count(Component::Ocn)};
  return blocks;
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Adds one coupling interval's tasks for the components still `pending`,
/// chained under the layout's sequencing. Dependencies on components that
/// already completed (a failure re-run) are dropped — the run clock covers
/// them. `barrier` carries the previous interval's coupler-barrier tasks
/// in and leaves this interval's behind. Returns runtime ids (kNone = not
/// added); both run_coupled and the chunk runner build through here, so
/// the mono and epoch-split schedules cannot drift apart.
std::array<std::size_t, 4> add_interval(sim::Runtime& rt, Layout layout,
                                        const std::array<sim::NodeSet, 4>& blocks,
                                        const std::array<double, 4>& seconds,
                                        const std::string& phase,
                                        const std::array<char, 4>& pending,
                                        std::vector<std::size_t>& barrier) {
  std::array<std::size_t, 4> ids;
  ids.fill(kNone);
  const auto filter = [](std::initializer_list<std::size_t> deps) {
    std::vector<std::size_t> kept;
    for (std::size_t d : deps)
      if (d != kNone) kept.push_back(d);
    return kept;
  };
  const auto add = [&](Component c, std::vector<std::size_t> deps) {
    const std::size_t i = index(c);
    if (!pending[i]) return kNone;
    ids[i] = rt.add_task(to_string(c), seconds[i], blocks[i], std::move(deps),
                         phase, false);
    return ids[i];
  };
  if (layout == Layout::FullySequential) {
    const auto ice = add(Component::Ice, barrier);
    const auto lnd = add(Component::Lnd, filter({ice}));
    const auto atm = add(Component::Atm, filter({lnd}));
    const auto ocn = add(Component::Ocn, filter({atm}));
    barrier = filter({ocn});
  } else {
    const auto ice = add(Component::Ice, barrier);
    const auto lnd = add(Component::Lnd, layout == Layout::Hybrid
                                             ? barrier
                                             : filter({ice}));
    const auto atm = add(Component::Atm, layout == Layout::Hybrid
                                             ? filter({ice, lnd})
                                             : filter({lnd}));
    const auto ocn = add(Component::Ocn, barrier);
    // The coupler barrier: both processor blocks join before the next
    // coupling period.
    barrier = filter({atm, ocn});
  }
  return ids;
}

}  // namespace

Simulator::CoupledRun Simulator::run_coupled(
    Layout layout, const std::array<long long, 4>& nodes, int intervals,
    const sim::Perturbation& perturb) const {
  HSLB_EXPECTS(intervals >= 1);
  CoupledRun out;
  out.intervals = intervals;

  const sim::Machine machine = machine_for(layout, nodes);
  sim::Runtime rt(machine);
  const auto blocks = blocks_for(layout, nodes, 0);

  // Per-interval durations are keyed (order-independent) draws — the same
  // convention as benchmark_at probes, offset into a dedicated rep range.
  const double inv = 1.0 / static_cast<double>(intervals);
  constexpr std::array<char, 4> kAllPending{1, 1, 1, 1};

  std::vector<std::pair<std::size_t, Component>> placed;
  placed.reserve(static_cast<std::size_t>(intervals) * kComponents.size());
  std::vector<std::size_t> barrier;  // what the next interval waits on
  for (int k = 0; k < intervals; ++k) {
    std::array<double, 4> seconds;
    for (Component c : kComponents) {
      seconds[index(c)] =
          benchmark_at(c, nodes[index(c)],
                       (1ull << 20) + static_cast<std::uint64_t>(k)) *
          inv;
    }
    const auto ids =
        add_interval(rt, layout, blocks, seconds,
                     "interval" + std::to_string(k), kAllPending, barrier);
    for (Component c : kComponents) placed.emplace_back(ids[index(c)], c);
  }

  const auto rr = rt.run(perturb);
  out.trace = rr.trace;
  out.completed = rr.completed;
  out.restarts = rr.restarts;
  out.total_seconds = rr.makespan;
  out.events = rr.trace.events.size();
  for (const auto& [id, c] : placed) {
    const auto& s = rr.tasks[id];
    if (std::isfinite(s.end))
      out.component_seconds[index(c)] += s.end - s.start;
  }

  // Barrier-free reference: the paper's formula on the summed times.
  out.coupling_loss_seconds =
      out.total_seconds - layout_total(layout, out.component_seconds);
  return out;
}

CoupledChunkRunner::CoupledChunkRunner(const Simulator& sim, Layout layout,
                                       int intervals, int intervals_per_epoch,
                                       sim::Machine machine,
                                       sim::Perturbation perturb)
    : sim_(&sim),
      layout_(layout),
      intervals_(intervals),
      chunk_(intervals_per_epoch),
      core_(machine, std::move(perturb),
            static_cast<long long>(machine.nodes)) {
  HSLB_EXPECTS(intervals_ >= 1);
  HSLB_EXPECTS(chunk_ >= 1);
  pending_.assign(static_cast<std::size_t>(intervals_),
                  std::array<char, 4>{1, 1, 1, 1});
}

void CoupledChunkRunner::install(const std::array<long long, 4>& nodes) {
  HSLB_EXPECTS(Simulator::layout_width(layout_, nodes) <= budget());
  nodes_ = nodes;
  blocks_ = Simulator::blocks_for(layout_, nodes, core_.segment().first);
  installed_ = true;
}

EpochOutcome CoupledChunkRunner::step() {
  HSLB_EXPECTS(installed_);
  EpochOutcome r;
  if (done_) {
    r.done = true;
    return r;
  }
  const double epoch_start = core_.clock();
  const int end_k = std::min(cursor_ + chunk_, intervals_);

  sim::Runtime rt(core_.machine());
  const double inv = 1.0 / static_cast<double>(intervals_);
  std::vector<std::tuple<std::size_t, Component, int>> placed;
  std::vector<std::size_t> barrier;
  for (int k = cursor_; k < end_k; ++k) {
    std::array<double, 4> seconds;
    for (Component c : kComponents) {
      seconds[index(c)] =
          sim_->benchmark_at(c, nodes_[index(c)],
                             (1ull << 20) + static_cast<std::uint64_t>(k)) *
          inv;
    }
    const auto ids = add_interval(rt, layout_, blocks_, seconds,
                                  "interval" + std::to_string(k),
                                  pending_[static_cast<std::size_t>(k)],
                                  barrier);
    for (Component c : kComponents)
      if (ids[index(c)] != kNone) placed.emplace_back(ids[index(c)], c, k);
  }
  const auto epoch = core_.run(rt);

  // Per-(interval, component) completed durations, for the block paths.
  std::vector<std::array<double, 4>> dur(
      static_cast<std::size_t>(end_k - cursor_), std::array<double, 4>{});
  for (const auto& [id, c, k] : placed) {
    if (!epoch.state.ran[id]) continue;
    const auto& ts = epoch.result.tasks[id];
    const double t = ts.end - ts.start;
    out_.component_seconds[index(c)] += t;
    pending_[static_cast<std::size_t>(k)][index(c)] = 0;
    r.observations.push_back({to_string(c),
                              static_cast<double>(nodes_[index(c)]),
                              t * static_cast<double>(intervals_), 0});
    dur[static_cast<std::size_t>(k - cursor_)][index(c)] = t;
  }

  const auto chunks_left = [&](int from) {
    return std::ceil(static_cast<double>(intervals_ - from) /
                     static_cast<double>(chunk_));
  };

  if (epoch.result.failure_paused) {
    r.failure_detected = true;
    // gather_plan's floor: a partition under 8 nodes cannot host a
    // re-solved CESM layout.
    if (budget() < 8) {
      unrecoverable_ = true;
      done_ = true;
      out_.completed = false;
      r.done = true;
    }
    r.epochs_remaining = chunks_left(cursor_);
    r.epoch_seconds = core_.clock() - epoch_start;
    return r;
  }

  cursor_ = end_k;
  if (cursor_ >= intervals_) done_ = true;

  // Imbalance between the layout's two parallel block paths: the
  // atmosphere-group chain vs the ocean (exactly the split Table I's
  // min-max balances). The fully sequential layout has a single path.
  if (layout_ != Layout::FullySequential) {
    double path_atm = 0.0, path_ocn = 0.0;
    for (const auto& d : dur) {
      const double lnd = d[index(Component::Lnd)];
      const double ice = d[index(Component::Ice)];
      const double atm = d[index(Component::Atm)];
      path_atm += layout_ == Layout::Hybrid ? std::max(ice, lnd) + atm
                                            : ice + lnd + atm;
      path_ocn += d[index(Component::Ocn)];
    }
    const std::array<double, 2> paths{path_atm, path_ocn};
    r.imbalance = stats::imbalance(paths);
  }

  r.done = done_;
  r.epochs_remaining = chunks_left(cursor_);
  r.epoch_seconds = core_.clock() - epoch_start;
  return r;
}

double CoupledChunkRunner::migration_volume(
    const std::array<long long, 4>& next, double gb_per_node) const {
  HSLB_EXPECTS(installed_);
  if (gb_per_node <= 0.0) return 0.0;
  const auto moved =
      Simulator::blocks_for(layout_, next, core_.segment().first);
  double volume = 0.0;
  for (Component c : kComponents) {
    const std::size_t i = index(c);
    if (moved[i] != blocks_[i])
      volume += gb_per_node * static_cast<double>(moved[i].count);
  }
  return volume;
}

Simulator::CoupledRun CoupledChunkRunner::finish() {
  out_.intervals = intervals_;
  out_.trace = core_.trace();
  out_.restarts = core_.restarts();
  out_.total_seconds = core_.clock();
  out_.events = out_.trace.events.size();
  out_.coupling_loss_seconds =
      out_.total_seconds - layout_total(layout_, out_.component_seconds);
  return out_;
}

}  // namespace hslb::cesm

#include "sim/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "sim/noise.hpp"

namespace hslb::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Node free times under range-assign / range-max: scheduling a task sets
/// every node of its range to the task's end time, and a candidate's start
/// is the max free time over its range. Both are O(log nodes), which is
/// what keeps the list scheduler viable at 10^5-10^6 nodes where the dense
/// per-node scan of the original implementation dominated.
class NodeFreeTree {
 public:
  explicit NodeFreeTree(std::size_t n) : n_(n) {
    size_ = 1;
    while (size_ < n_) size_ <<= 1;
    max_.assign(2 * size_, 0.0);
    lazy_.assign(2 * size_, -1.0);  // < 0: no pending assignment
  }

  /// Max free time over nodes [lo, hi).
  double range_max(std::size_t lo, std::size_t hi) {
    HSLB_EXPECTS(lo < hi && hi <= n_);
    return query(1, 0, size_, lo, hi);
  }

  /// Sets every node in [lo, hi) free at time v.
  void assign(std::size_t lo, std::size_t hi, double v) {
    HSLB_EXPECTS(lo < hi && hi <= n_);
    update(1, 0, size_, lo, hi, v);
  }

  /// Free time of a single node.
  double at(std::size_t i) { return range_max(i, i + 1); }

 private:
  void apply(std::size_t node, double v) {
    max_[node] = v;
    if (node < size_) lazy_[node] = v;
  }

  void push(std::size_t node) {
    if (lazy_[node] >= 0.0) {
      apply(2 * node, lazy_[node]);
      apply(2 * node + 1, lazy_[node]);
      lazy_[node] = -1.0;
    }
  }

  double query(std::size_t node, std::size_t l, std::size_t r, std::size_t lo,
               std::size_t hi) {
    if (hi <= l || r <= lo) return 0.0;
    if (lo <= l && r <= hi) return max_[node];
    push(node);
    const std::size_t mid = (l + r) / 2;
    return std::max(query(2 * node, l, mid, lo, hi),
                    query(2 * node + 1, mid, r, lo, hi));
  }

  void update(std::size_t node, std::size_t l, std::size_t r, std::size_t lo,
              std::size_t hi, double v) {
    if (hi <= l || r <= lo) return;
    if (lo <= l && r <= hi) {
      apply(node, v);
      return;
    }
    push(node);
    const std::size_t mid = (l + r) / 2;
    update(2 * node, l, mid, lo, hi, v);
    update(2 * node + 1, mid, r, lo, hi, v);
    max_[node] = std::max(max_[2 * node], max_[2 * node + 1]);
  }

  std::size_t n_ = 0, size_ = 0;
  std::vector<double> max_;
  std::vector<double> lazy_;
};

/// FNV-1a over a task/phase name: turns the string into a stream index for
/// derive_seed so noise keys are stable under scheduling order.
std::uint64_t hash_name(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

bool NodeSet::overlaps(const NodeSet& other) const {
  if (count == 0 || other.count == 0) return false;
  return first < other.end() && other.first < end();
}

bool Perturbation::hits(const NodeSet& nodes) const {
  if (!fails()) return false;
  const auto f = static_cast<std::size_t>(fail_node);
  return f >= nodes.first && f < nodes.end();
}

double Perturbation::slowdown(const NodeSet& nodes) const {
  double worst = 1.0;
  const std::size_t hi = std::min(nodes.end(), node_slowdown.size());
  for (std::size_t n = nodes.first; n < hi; ++n)
    worst = std::max(worst, node_slowdown[n]);
  return worst;
}

double Perturbation::noise(const std::string& phase, const std::string& task,
                           std::uint64_t attempt) const {
  return noise_keyed(noise_key(phase, task), attempt);
}

std::uint64_t Perturbation::noise_key(const std::string& phase,
                                      const std::string& task) const {
  return derive_seed(derive_seed(seed, hash_name(phase)), hash_name(task));
}

double Perturbation::noise_keyed(std::uint64_t key,
                                 std::uint64_t attempt) const {
  if (noise_cv <= 0.0) return 1.0;
  NoiseModel model(noise_cv, derive_seed(key, attempt));
  return model.perturb(1.0);
}

std::vector<double> Perturbation::stragglers(std::size_t nodes, double cv,
                                             std::uint64_t seed) {
  HSLB_EXPECTS(cv >= 0.0);
  std::vector<double> factors(nodes, 1.0);
  Rng rng(derive_seed(seed, 0x5742a6c1u));  // fixed straggler stream
  for (auto& f : factors) f = std::max(1.0, rng.lognormal_unit_mean(cv));
  return factors;
}

Runtime::Runtime(Machine machine) : machine_(std::move(machine)) {
  HSLB_EXPECTS(machine_.nodes >= 1);
}

std::size_t Runtime::add_task(std::string name, double duration, NodeSet nodes,
                              std::vector<std::size_t> deps, std::string phase,
                              bool fixed, TaskDemand demand) {
  HSLB_EXPECTS(duration >= 0.0);
  HSLB_EXPECTS(nodes.count >= 1);
  HSLB_EXPECTS(nodes.end() <= machine_.nodes);
  HSLB_EXPECTS(demand.comm_gb >= 0.0 && demand.memory_gb >= 0.0);
  for (std::size_t d : deps) HSLB_EXPECTS(d < tasks_.size());
  tasks_.push_back(Task{std::move(name), duration, nodes, std::move(deps),
                        std::move(phase), fixed, demand.comm_gb,
                        demand.memory_gb});
  return tasks_.size() - 1;
}

const Task& Runtime::task(std::size_t id) const {
  HSLB_EXPECTS(id < tasks_.size());
  return tasks_[id];
}

RunResult Runtime::run(const Perturbation& perturbation) const {
  return run(perturbation, EpochOptions{});
}

RunResult Runtime::run(const Perturbation& perturbation,
                       const EpochOptions& epoch, EpochState* epoch_out) const {
  HSLB_EXPECTS(epoch.start >= 0.0);
  RunResult out;
  out.trace.machine = machine_.name;
  out.trace.nodes = machine_.nodes;
  out.trace.cores_per_node = machine_.cores_per_node;
  out.tasks.assign(tasks_.size(), ScheduledTask{kInf, kInf});
  // One event per task plus the occasional fail-stop abort: reserving the
  // common case up front kills the doubling reallocations that dominated
  // trace accumulation at 10^6 tasks.
  out.trace.events.reserve(tasks_.size());

  const std::size_t nt = tasks_.size();
  enum class State : std::uint8_t { Pending, Done, Failed };
  std::vector<State> state(nt, State::Pending);
  const double fail_at = perturbation.fail_time;
  const double recover = perturbation.fail_time + perturbation.fail_downtime;

  // Event-driven list scheduling, semantically identical to a full rescan:
  // the next task to run is the ready task minimizing (start time, id).
  // Ready tasks are bucketed by node range; within a bucket, tasks whose
  // ready time is at or below the range's free time F all start at F (the
  // released heap orders them by id), the rest start at their own ready
  // time (the pending heap orders them by (ready, id)), so a bucket's best
  // candidate is the lexicographic min of the two heads. A global heap
  // holds one active claim per bucket — a lower bound on the bucket's best,
  // because F (hence every candidate key) only moves forward and insertions
  // refresh the claim. A popped claim that matches a fresh recompute is
  // therefore the true global argmin; otherwise the recompute is pushed
  // back. Total cost O((tasks + claims) log) instead of the O(tasks^2)
  // rescan this replaces (bit-identical traces; see sim_runtime_test).
  struct Bucket {
    std::size_t first = 0, count = 0;
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        std::greater<>> released;
    std::priority_queue<std::pair<double, std::size_t>,
                        std::vector<std::pair<double, std::size_t>>,
                        std::greater<>> pending;
    std::pair<double, std::size_t> claim{kInf, SIZE_MAX};
  };
  std::vector<Bucket> buckets;
  std::unordered_map<std::uint64_t, std::size_t> bucket_of;
  NodeFreeTree node_free(machine_.nodes);
  if (epoch.start > 0.0) node_free.assign(0, machine_.nodes, epoch.start);
  using Claim = std::tuple<double, std::size_t, std::size_t>;  // start, id, bkt
  std::priority_queue<Claim, std::vector<Claim>, std::greater<>> claims;

  // Reverse adjacency (CSR) for event-driven dependency release.
  std::vector<std::size_t> out_start(nt + 1, 0);
  std::vector<std::size_t> remaining(nt, 0);
  for (std::size_t t = 0; t < nt; ++t) {
    remaining[t] = tasks_[t].deps.size();
    for (std::size_t d : tasks_[t].deps) ++out_start[d + 1];
  }
  for (std::size_t t = 0; t < nt; ++t) out_start[t + 1] += out_start[t];
  std::vector<std::size_t> out_edges(out_start[nt]);
  {
    std::vector<std::size_t> next(out_start.begin(), out_start.end() - 1);
    for (std::size_t t = 0; t < nt; ++t)
      for (std::size_t d : tasks_[t].deps) out_edges[next[d]++] = t;
  }
  std::vector<double> ready_at(nt, 0.0);
  std::vector<std::uint8_t> dep_failed(nt, 0);

  // Fresh best candidate of a bucket, promoting newly released tasks.
  auto bucket_best = [&](Bucket& b) {
    const double f = node_free.range_max(b.first, b.first + b.count);
    while (!b.pending.empty() && b.pending.top().first <= f) {
      b.released.push(b.pending.top().second);
      b.pending.pop();
    }
    std::pair<double, std::size_t> best{kInf, SIZE_MAX};
    if (!b.released.empty()) best = {f, b.released.top()};
    if (!b.pending.empty() && b.pending.top() < best) best = b.pending.top();
    return best;
  };

  // Files a task (all deps done, none failed) into its node-range bucket
  // and refreshes the bucket's claim if the newcomer undercuts it.
  auto insert_ready = [&](std::size_t t) {
    const NodeSet& ns = tasks_[t].nodes;
    const std::uint64_t key =
        static_cast<std::uint64_t>(ns.first) * (machine_.nodes + 1) + ns.count;
    const auto [it, fresh] = bucket_of.try_emplace(key, buckets.size());
    if (fresh) {
      buckets.emplace_back();
      buckets.back().first = ns.first;
      buckets.back().count = ns.count;
    }
    Bucket& b = buckets[it->second];
    const double f = node_free.range_max(b.first, b.first + b.count);
    const double r = ready_at[t];
    if (r <= f) {
      b.released.push(t);
    } else {
      b.pending.push({r, t});
    }
    const std::pair<double, std::size_t> cand{std::max(f, r), t};
    if (cand < b.claim) {
      b.claim = cand;
      claims.push({cand.first, cand.second, it->second});
    }
  };

  // Marks a task resolved and walks its dependents; the worklist carries
  // (task, failed) so failure cascades never recurse.
  std::vector<std::pair<std::size_t, bool>> worklist;
  auto resolve = [&](std::size_t t, bool failed) {
    worklist.emplace_back(t, failed);
    while (!worklist.empty()) {
      const auto [d, dead] = worklist.back();
      worklist.pop_back();
      for (std::size_t e = out_start[d]; e < out_start[d + 1]; ++e) {
        const std::size_t u = out_edges[e];
        if (dead) {
          dep_failed[u] = 1;
        } else {
          ready_at[u] = std::max(ready_at[u], out.tasks[d].end);
        }
        if (--remaining[u] != 0 || state[u] != State::Pending) continue;
        if (dep_failed[u]) {
          // A ready task with a failed dependency can never run.
          state[u] = State::Failed;
          worklist.emplace_back(u, true);
        } else {
          insert_ready(u);
        }
      }
    }
  };

  // Placements the machine cannot legally run — working set past node
  // memory on a non-paging machine, or nonzero traffic on a dead link —
  // are rejected up front; their dependents resolve as Failed.
  for (std::size_t t = 0; t < nt; ++t) {
    const auto span = static_cast<double>(tasks_[t].nodes.count);
    if (!machine_.memory_feasible(tasks_[t].memory_gb, span) ||
        std::isinf(machine_.comm_seconds(tasks_[t].comm_gb, span))) {
      state[t] = State::Failed;
      ++out.rejected;
    }
  }
  for (std::size_t t = 0; t < nt; ++t) {
    if (state[t] == State::Pending && remaining[t] == 0) insert_ready(t);
  }
  for (std::size_t t = 0; t < nt; ++t) {
    if (state[t] == State::Failed) resolve(t, /*failed=*/true);
  }

  while (!claims.empty()) {
    const auto [c_start, c_id, c_bkt] = claims.top();
    claims.pop();
    Bucket& b = buckets[c_bkt];
    const std::pair<double, std::size_t> popped{c_start, c_id};
    if (popped != b.claim) continue;  // superseded claim
    const auto fresh = bucket_best(b);
    if (fresh != popped) {
      // The range's free time moved since the claim: re-bid and retry.
      b.claim = fresh;
      claims.push({fresh.first, fresh.second, c_bkt});
      continue;
    }
    const std::size_t best = fresh.second;
    const double best_start = fresh.first;
    if (!b.released.empty() && b.released.top() == best) {
      b.released.pop();
    } else {
      b.pending.pop();
    }
    {
      const auto next = bucket_best(b);
      b.claim = next;
      if (next.second != SIZE_MAX)
        claims.push({next.first, next.second, c_bkt});
    }

    const Task& t = tasks_[best];
    const bool hit = perturbation.hits(t.nodes);
    const double slow = t.fixed ? 1.0 : perturbation.slowdown(t.nodes);
    const auto span = static_cast<double>(t.nodes.count);
    const double comm = machine_.comm_seconds(t.comm_gb, span);
    const double page = machine_.page_seconds(t.memory_gb, span);
    // Intern the (phase, task) noise key once; attempts re-draw from it
    // without re-hashing the strings.
    const std::uint64_t nkey =
        t.fixed ? 0 : perturbation.noise_key(t.phase, t.name);
    double start = best_start;
    double end = 0.0;
    std::uint64_t attempt = 0;
    bool infeasible = false;
    while (true) {
      if (hit && start >= fail_at && start < recover) {
        if (std::isinf(recover)) {
          infeasible = true;
          break;
        }
        start = recover;  // wait out the downtime
      }
      const double factor =
          t.fixed ? 1.0 : perturbation.noise_keyed(nkey, attempt);
#ifndef NDEBUG
      // Keyed draws must match the string-keyed path bit for bit.
      HSLB_ASSERT(t.fixed ||
                  factor == perturbation.noise(t.phase, t.name, attempt));
#endif
      end = start + t.duration * factor * slow + comm + page;
      if (hit && start < fail_at && end > fail_at) {
        // The fail-stop interrupts this attempt: the work is lost and the
        // task re-runs (fresh noise draw) once the node recovers.
        out.trace.events.push_back({t.name, t.phase, t.nodes.first,
                                    t.nodes.count, start, fail_at, true});
        ++out.restarts;
        if (std::isinf(recover)) {
          infeasible = true;
          break;
        }
        start = recover;
        ++attempt;
        continue;
      }
      break;
    }
    if (infeasible) {
      if (epoch.stop_on_failure) {
        // Pause for the caller: the task stays pending (to be re-placed by
        // a new allocation, or left unrun when the run stops) instead of
        // cascading failure through its dependents. Aborted-attempt events
        // stay in the trace.
        out.failure_paused = true;
        out.paused_task = best;
        break;
      }
      // Permanent loss of a node the task is pinned to: a static schedule
      // cannot complete (the dynamic queue would re-dispatch instead).
      state[best] = State::Failed;
      resolve(best, /*failed=*/true);
      continue;
    }
    out.tasks[best] = {start, end};
    out.comm_seconds += comm;
    out.page_seconds += page;
    node_free.assign(t.nodes.first, t.nodes.end(), end);
    out.trace.events.push_back(
        {t.name, t.phase, t.nodes.first, t.nodes.count, start, end, false});
    state[best] = State::Done;
    out.makespan = std::max(out.makespan, end);
    // Release dependents before the next pop so their bucket claims join
    // the auction for the next pick, exactly like the full rescan saw them.
    resolve(best, /*failed=*/false);
  }
  for (State s : state)
    if (s == State::Failed) out.completed = false;
  if (out.failure_paused) out.completed = false;
  if (epoch_out != nullptr) {
    epoch_out->node_free.resize(machine_.nodes);
    for (std::size_t n = 0; n < machine_.nodes; ++n)
      epoch_out->node_free[n] = node_free.at(n);
    epoch_out->ran.assign(nt, 0);
    epoch_out->observed.clear();
    for (std::size_t t = 0; t < nt; ++t) {
      if (state[t] != State::Done) continue;
      epoch_out->ran[t] = 1;
      if (tasks_[t].fixed) continue;
      const auto span = static_cast<double>(tasks_[t].nodes.count);
      const double overhead = machine_.comm_seconds(tasks_[t].comm_gb, span) +
                              machine_.page_seconds(tasks_[t].memory_gb, span);
      epoch_out->observed.emplace_back(
          t, out.tasks[t].end - out.tasks[t].start - overhead);
    }
  }
  return out;
}

QueueRunResult Runtime::run_queue(const Machine& machine,
                                  const std::vector<NodeSet>& groups,
                                  const std::vector<QueueTask>& queue,
                                  const Perturbation& perturbation,
                                  double start_time) {
  HSLB_EXPECTS(machine.nodes >= 1);
  HSLB_EXPECTS(!groups.empty());
  HSLB_EXPECTS(start_time >= 0.0);
  for (const auto& g : groups) {
    HSLB_EXPECTS(g.count >= 1);
    HSLB_EXPECTS(g.end() <= machine.nodes);
  }

  QueueRunResult out;
  out.trace.machine = machine.name;
  out.trace.nodes = machine.nodes;
  out.trace.cores_per_node = machine.cores_per_node;
  out.tasks.assign(queue.size(), ScheduledTask{kInf, kInf});
  out.task_group.assign(queue.size(), groups.size());
  out.group_busy.assign(groups.size(), 0.0);
  out.makespan = start_time;
  out.trace.events.reserve(queue.size());

  // Earliest-free group pulls the next task; ties go to the lowest group
  // id — the GAMESS shared-counter regime the DLB baseline reproduces.
  using Entry = std::pair<double, std::size_t>;  // (free time, group)
  std::vector<Entry> pool_storage;
  pool_storage.reserve(groups.size() + 1);
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pool(
      std::greater<>{}, std::move(pool_storage));
  for (std::size_t g = 0; g < groups.size(); ++g) pool.push({start_time, g});

  const double fail_at = perturbation.fail_time;
  const double recover = perturbation.fail_time + perturbation.fail_downtime;
  std::vector<std::uint64_t> attempt(queue.size(), 0);
  // Intern every (phase, task) noise key up front — one hash per queue
  // entry instead of one per dispatch attempt.
  std::vector<std::uint64_t> nkey(queue.size());
  for (std::size_t t = 0; t < queue.size(); ++t)
    nkey[t] = perturbation.noise_key(queue[t].phase, queue[t].name);

  // Groups the machine cannot legally run a task on (overcommitted memory,
  // dead link) are set aside — skipped for that task only, not retired —
  // and rejoin the pool once the task is placed or given up. One backing
  // allocation serves the whole queue.
  std::vector<Entry> unfit;
  for (std::size_t t = 0; t < queue.size(); ++t) {
    unfit.clear();
    for (bool placed = false; !placed;) {
      if (pool.empty()) {
        if (unfit.empty()) {
          // Every group has retired with work remaining.
          out.completed = false;
          return out;
        }
        // No surviving group can run this task; it stays unrun while the
        // rest of the queue drains on the groups that remain.
        out.completed = false;
        ++out.rejected;
        break;
      }
      const auto [free, g] = pool.top();
      pool.pop();
      const NodeSet& nodes = groups[g];
      const bool hit = perturbation.hits(nodes);
      if (hit && free >= fail_at && free < recover) {
        // The group is down; it rejoins the pool when the node recovers,
        // or retires for good under a permanent failure.
        if (!std::isinf(recover)) pool.push({recover, g});
        continue;
      }
      const auto span = static_cast<double>(nodes.count);
      const double comm = machine.comm_seconds(queue[t].comm_gb, span);
      const double page = machine.page_seconds(queue[t].memory_gb, span);
      if (!machine.memory_feasible(queue[t].memory_gb, span) ||
          std::isinf(comm)) {
        unfit.push_back({free, g});
        continue;
      }
      const double factor = perturbation.noise_keyed(nkey[t], attempt[t]);
#ifndef NDEBUG
      HSLB_ASSERT(factor == perturbation.noise(queue[t].phase, queue[t].name,
                                               attempt[t]));
#endif
      const double duration =
          queue[t].seconds(static_cast<long long>(nodes.count)) * factor *
          perturbation.slowdown(nodes);
      const double start = free;
      const double end = start + duration + comm + page;
      if (hit && start < fail_at && end > fail_at) {
        // Abort; the task goes back to the queue head and is re-dispatched
        // to whichever group frees up next — dynamic dispatch shrugs off
        // the failure that would wedge a static schedule.
        out.trace.events.push_back({queue[t].name, queue[t].phase, nodes.first,
                                    nodes.count, start, fail_at, true});
        ++out.restarts;
        ++attempt[t];
        if (!std::isinf(recover)) pool.push({recover, g});
        continue;
      }
      out.trace.events.push_back({queue[t].name, queue[t].phase, nodes.first,
                                  nodes.count, start, end, false});
      out.tasks[t] = {start, end};
      out.task_group[t] = g;
      out.group_busy[g] += duration + comm + page;
      out.comm_seconds += comm;
      out.page_seconds += page;
      out.makespan = std::max(out.makespan, end);
      pool.push({end, g});
      placed = true;
    }
    for (const auto& e : unfit) pool.push(e);
  }
  return out;
}

}  // namespace hslb::sim

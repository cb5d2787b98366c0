// service_stream: one AllocationService (2 pool workers, batch = 8) fed one
// batch per run_script call. The seeded script mixes exact repeats (cache
// reads), near-repeats with a perturbed budget or scale (warm misses) and
// novel instances (cold or far-donor misses), of both request kinds. The
// cache holds fewer entries than the stream has distinct instances, so
// inserts evict.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "service/service.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using hslb::service::Request;
using hslb::service::RequestKind;
using hslb::service::Response;

constexpr std::size_t kBatch = 8;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kCacheCapacity = 32;
constexpr std::size_t kRepeatWindow = 24;  // repeats pick among the newest

class StreamGenerator {
 public:
  StreamGenerator(std::uint64_t seed, bool toy)
      : rng_(hslb::derive_seed(seed, 0x5e7u)), toy_(toy) {}

  /// A fresh solve-kind instance; `tasks` and `budget` are drawn when 0.
  Request novel_solve(std::int64_t tasks = 0, long long budget = 0) {
    Request r;
    r.kind = RequestKind::Solve;
    if (tasks == 0) tasks = rng_.uniform_int(3, toy_ ? 3 : 6);
    for (std::int64_t t = 0; t < tasks; ++t) {
      hslb::service::SolveTaskSpec s;
      s.name = "t";
      s.name += std::to_string(t);
      s.a = rng_.uniform(100.0, 1000.0);
      s.b = rng_.uniform(0.5, 5.0);
      s.c = rng_.uniform(1.0, 1.3);
      s.d = rng_.uniform(0.0, 5.0);
      r.tasks.push_back(s);
    }
    const long long budgets[] = {32, 48, 64, 96, 128};
    r.budget = budget > 0 ? budget : budgets[rng_.uniform_int(0, 4)];
    return remember(r);
  }

  /// A fresh fmo-kind instance; `family` and `fragments` are drawn when
  /// null / 0. A drawn size gets a drawn budget, a given one 6 per fragment.
  Request novel_fmo(const char* family = nullptr, long long fragments = 0) {
    Request r;
    r.kind = RequestKind::Fmo;
    const char* families[] = {"water", "peptide", "comm"};
    r.family = family != nullptr ? family : families[rng_.uniform_int(0, 2)];
    const bool drawn = fragments == 0;
    r.fragments = toy_ ? 4 : drawn ? rng_.uniform_int(8, 12) : fragments;
    r.budget = r.fragments * (drawn ? rng_.uniform_int(4, 8) : 6);
    r.system_seed = rng_.next() % 100000;
    r.bench_seed = rng_.next() % 100000;
    r.fit_points = 4;
    return remember(r);
  }

  /// A recent instance with its budget or cost scale nudged: a new
  /// signature whose nearest cached donor is one step away.
  Request near_repeat(RequestKind kind) {
    Request r = recent(kind);
    if (kind == RequestKind::Fmo || rng_.uniform() < 0.5) {
      r.budget += rng_.uniform_int(1, 8);
    } else {
      const double scale = rng_.uniform(1.02, 1.2);
      for (auto& t : r.tasks) t.a *= scale;
    }
    return remember(r);
  }

  Request exact_repeat() {
    const std::size_t lo =
        history_.size() > kRepeatWindow ? history_.size() - kRepeatWindow : 0;
    return history_[static_cast<std::size_t>(rng_.uniform_int(
        static_cast<std::int64_t>(lo),
        static_cast<std::int64_t>(history_.size()) - 1))];
  }

  /// One batch: five exact repeats, two near-repeats and one novel
  /// instance, exactly one of the three misses fmo-kind, in seeded order.
  std::vector<Request> batch(std::size_t index) {
    std::vector<Request> out;
    const bool fmo_novel = index % 2 == 0;
    out.push_back(fmo_novel ? novel_fmo() : novel_solve());
    out.push_back(near_repeat(fmo_novel ? RequestKind::Solve : RequestKind::Fmo));
    out.push_back(near_repeat(RequestKind::Solve));
    for (int k = 0; k < 5; ++k) out.push_back(exact_repeat());
    for (std::size_t k = out.size(); k > 1; --k)
      std::swap(out[k - 1],
                out[static_cast<std::size_t>(rng_.uniform_int(
                    0, static_cast<std::int64_t>(k) - 1))]);
    return out;
  }

 private:
  Request remember(const Request& r) {
    history_.push_back(r);
    return r;
  }

  Request recent(RequestKind kind) {
    for (std::size_t tries = 0; tries < 64; ++tries) {
      const Request& r = exact_repeat();
      if (r.kind == kind) return r;
    }
    return kind == RequestKind::Fmo ? novel_fmo() : novel_solve();
  }

  hslb::Rng rng_;
  bool toy_;
  std::vector<Request> history_;
};

/// Budget and bounds re-check of one response, done without the service.
std::string check_response(const Request& request, const Response& resp) {
  const Request c = hslb::service::canonicalize(request);
  if (resp.status == "infeasible") return "infeasible response";
  long long total = 0;
  for (const auto& t : resp.allocation.tasks) {
    if (t.nodes < 1) return "task '" + t.task + "' got no node";
    total += t.nodes;
  }
  if (total > c.budget) return "allocation exceeds the node budget";
  if (c.kind == RequestKind::Solve) {
    if (resp.allocation.tasks.size() != c.tasks.size())
      return "allocation misses tasks";
    for (const auto& spec : c.tasks) {
      if (!resp.allocation.contains(spec.name))
        return "allocation misses task '" + spec.name + "'";
      const long long n = resp.allocation.find(spec.name).nodes;
      if (n < spec.min_nodes || n > spec.max_nodes)
        return "task '" + spec.name + "' outside its node bounds";
    }
  } else if (resp.allocation.tasks.size() !=
             static_cast<std::size_t>(c.fragments)) {
    return "allocation misses fragments";
  }
  return {};
}

class ServiceWorkload final : public Workload {
 public:
  explicit ServiceWorkload(const Config& config) : config_(config) {}

  void setup() override {
    StreamGenerator gen(config_.seed, config_.toy);
    // The primer and the warm-up have a fixed size (the seed draws only
    // their costs), so setup_s does not inherit the spread of the stream.
    std::vector<Request> primer;
    const char* families[] = {"water", "peptide", "comm", "water"};
    for (int k = 0; k < 16; ++k)
      primer.push_back(k % 4 == 3 ? gen.novel_fmo(families[k / 4], 10)
                                  : gen.novel_solve(config_.toy ? 3 : 5, 64));
    script_.clear();
    const std::size_t batches = config_.toy ? 16 : 1500;
    for (std::size_t b = 0; b < batches; ++b) script_.push_back(gen.batch(b));

    hslb::service::ServiceOptions opt;
    opt.threads = kWorkers;
    opt.batch = kBatch;
    opt.cache_capacity = kCacheCapacity;
    service_ = std::make_unique<hslb::service::AllocationService>(opt);
    populated_.clear();
    for (const auto& r : service_->run_script(primer))
      populated_[r.signature] = r.to_line();
    // Warm-up op: one batch of exact repeats of the primer (cache reads).
    (void)run_batch(std::vector<Request>(primer.begin() + 8, primer.end()),
                    batches, nullptr);
  }

  OpOutcome run_op(std::size_t i, Tracer* tracer) override {
    return run_batch(script_[i % script_.size()], i, tracer);
  }

  std::size_t prefix_ops() const override { return config_.toy ? 6 : 60; }

  std::string describe() const override {
    return "AllocationService::run_script of one 8-request batch (5 exact "
           "repeats, 2 near-repeats, 1 novel; solve and fmo kinds), 2 "
           "workers, cache capacity 32, primed with 16 instances -> checks";
  }

 private:
  /// One run_script call on `batch`; `i` is the op id its spans carry.
  OpOutcome run_batch(const std::vector<Request>& batch, std::size_t i,
                      Tracer* tracer) {
    // Counters are cumulative; a traced op reports its own share.
    hslb::service::ServiceReport before;
    if (tracer != nullptr) before = service_->report();
    OpOutcome out;
    std::vector<Response> responses;
    const auto t0 = std::chrono::steady_clock::now();
    {
      ScopedSpan s(tracer, "service.run_script", i, 0);
      responses = service_->run_script(batch);
      s.arg("hits", static_cast<double>(std::count_if(
                        responses.begin(), responses.end(),
                        [](const Response& r) { return r.cache_hit; })));
    }
    out.latency_s = seconds_since(t0);

    for (std::size_t k = 0; k < responses.size(); ++k) {
      Response r = responses[k];
      if (config_.plant == "over-budget" && k == 0 &&
          !r.allocation.tasks.empty())
        r.allocation.tasks.front().nodes += batch[k].budget;
      std::string failure = check_response(batch[k], r);
      const std::string line = r.to_line();
      if (!r.cache_hit) {
        populated_[r.signature] = line;
      } else if (const auto it = populated_.find(r.signature);
                 it == populated_.end() || it->second != line) {
        failure = "cache hit differs from the payload that populated it";
      }
      if (!failure.empty() && out.failure.empty()) out.failure = failure;
    }

    if (tracer != nullptr) {
      const auto& after = service_->report();
      const auto delta = [&](std::size_t a, std::size_t b) {
        return static_cast<double>(a - b);
      };
      Layers& l = out.layers;
      for (const auto& s : tracer->spans_of(i)) l["service.batch_s"] += s.seconds();
      for (const auto& r : responses) {
        if (r.cache_hit) continue;
        l["service.solve_s"] += r.latency_seconds;
        l["minlp.nodes"] += static_cast<double>(r.bnb_nodes);
        l["minlp.cuts"] += static_cast<double>(r.bnb_cuts);
      }
      l["service.requests"] = delta(after.requests, before.requests);
      l["service.hits"] = delta(after.hits, before.hits);
      l["service.misses"] = delta(after.misses, before.misses);
      l["service.warm_solves"] = delta(after.warm_solves, before.warm_solves);
      l["service.cold_solves"] = delta(after.cold_solves, before.cold_solves);
      l["service.audit_fallbacks"] =
          delta(after.audit_fallbacks, before.audit_fallbacks);
      l["service.evictions"] = delta(after.evictions, before.evictions);
      l["service.warm_bnb_nodes"] =
          delta(after.warm_bnb_nodes, before.warm_bnb_nodes);
      l["service.cold_bnb_nodes"] =
          delta(after.cold_bnb_nodes, before.cold_bnb_nodes);
      l["service.worker_s"] = l["service.batch_s"] * kWorkers;
    }
    return out;
  }

  Config config_;
  std::vector<std::vector<Request>> script_;
  std::unique_ptr<hslb::service::AllocationService> service_;
  /// to_line() of the response that last filled each cache signature.
  std::map<std::uint64_t, std::string> populated_;
};

}  // namespace

std::unique_ptr<Workload> make_service_workload(const Config& config) {
  return std::make_unique<ServiceWorkload>(config);
}

}  // namespace perfbench

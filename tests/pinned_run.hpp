// Test helper for pinned runs, static and closed-loop: a forwarding
// hslb::Application that records what the controller did to the wrapped
// substrate (the B&B node count of every warm re-solve and the allocation
// left installed), plus a checker that compares one-thread and four-thread
// runs against values captured from a reference build, including a 64-bit
// FNV-1a digest of the whole execution trace (Trace::to_csv).
//
// When a digest fails, set HSLB_TRACE_DIR to a directory to write every
// pinned run's trace there as <name>.csv, and diff it against the same
// directory written by the reference build (`diff -r dirA dirB`).
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "hslb/pipeline.hpp"

namespace hslb::pinning {

class RecordingApp final : public Application {
 public:
  explicit RecordingApp(std::shared_ptr<Application> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  GatherPlan gather_plan() override { return inner_->gather_plan(); }
  double probe(const std::string& task, long long nodes,
               std::uint64_t rep) override {
    return inner_->probe(task, nodes, rep);
  }
  perf::FitOptions fit_options() const override {
    return inner_->fit_options();
  }
  SolveOutcome solve(const std::vector<std::pair<std::string, perf::FitResult>>&
                         fits) override {
    SolveOutcome out = inner_->solve(fits);
    installed = out.allocation;
    return out;
  }
  double execute(const SolveOutcome& solution) override {
    return inner_->execute(solution);
  }
  sim::Machine machine() const override { return inner_->machine(); }
  const sim::Trace* execution_trace() const override {
    return inner_->execution_trace();
  }
  bool execution_completed() const override {
    return inner_->execution_completed();
  }
  std::vector<std::pair<std::string, double>> execution_term_seconds()
      const override {
    return inner_->execution_term_seconds();
  }
  bool supports_epochs() const override { return inner_->supports_epochs(); }
  void begin_epochs(const SolveOutcome& solution) override {
    inner_->begin_epochs(solution);
  }
  EpochOutcome execute_epoch(std::size_t epoch) override {
    return inner_->execute_epoch(epoch);
  }
  ResolveOutcome resolve(
      const std::vector<std::pair<std::string, perf::FitResult>>& fits,
      const SolveOutcome& incumbent) override {
    ResolveOutcome out = inner_->resolve(fits, incumbent);
    resolve_nodes.push_back(out.solution.solver.nodes);
    return out;
  }
  double migration_cost(const SolveOutcome& from,
                        const SolveOutcome& to) const override {
    return inner_->migration_cost(from, to);
  }
  double apply_allocation(const SolveOutcome& solution) override {
    installed = solution.allocation;
    return inner_->apply_allocation(solution);
  }
  double finish_epochs() override { return inner_->finish_epochs(); }

  std::vector<std::size_t> resolve_nodes;  ///< B&B nodes per warm re-solve
  Allocation installed;  ///< the allocation the run finished under

 private:
  std::shared_ptr<Application> inner_;
};

/// Values a pinned run must reproduce.
struct Pinned {
  std::size_t rebalances = 0;
  std::size_t restarts = 0;
  std::size_t events = 0;
  std::size_t solve_nodes = 0;  ///< B&B nodes of the initial Solve
  std::vector<std::size_t> resolve_nodes;
  std::vector<long long> allocation;  ///< final node counts, task order
  double makespan = 0.0;              ///< to 1e-12 relative
  std::uint64_t trace_digest = 0;     ///< hash::Fnv1a of Trace::to_csv()
};

/// Runs a fresh application from `make` through the engine (closed loop
/// when `policy.adaptive`) once with one worker thread and once with four,
/// so Gather, Fit and the controller's refits run pooled, and checks both
/// runs against `want`; the four-thread trace must equal the one-thread
/// trace byte for byte. When HSLB_TRACE_DIR is set, the one-thread trace is
/// written to $HSLB_TRACE_DIR/<name>.csv. On a mismatch the failure message
/// carries the observed values in Pinned's field order, ready to paste.
inline void expect_pinned(
    const std::string& name,
    const std::function<std::shared_ptr<Application>()>& make,
    const RebalancePolicy& policy, const Pinned& want) {
  std::string serial_trace;
  for (std::size_t threads : {1u, 4u}) {
    RecordingApp rec(make());
    PipelineOptions opt;
    opt.threads = threads;
    opt.rebalance = policy;
    const PipelineRun run = Pipeline(opt).run(rec);

    Pinned got;
    got.rebalances = run.report.rebalances;
    got.restarts = run.report.exec_restarts;
    got.events = run.report.exec_events;
    got.solve_nodes = run.report.solver.nodes;
    got.resolve_nodes = rec.resolve_nodes;
    for (const auto& t : rec.installed.tasks) got.allocation.push_back(t.nodes);
    got.makespan = run.report.exec.makespan;
    const std::string trace = run.trace.to_csv();
    got.trace_digest = hash::Fnv1a().mix(trace).value();

    std::ostringstream seen;
    seen.precision(17);
    seen << name << " (" << threads << " threads) observed {" << got.rebalances
         << ", " << got.restarts << ", " << got.events << ", "
         << got.solve_nodes << ", {";
    for (std::size_t n : got.resolve_nodes) seen << n << ",";
    seen << "}, {";
    for (long long n : got.allocation) seen << n << ",";
    seen << "}, " << got.makespan << ", 0x" << std::hex << got.trace_digest
         << "ull}";
    SCOPED_TRACE(seen.str());

    EXPECT_EQ(got.rebalances, want.rebalances);
    EXPECT_EQ(got.restarts, want.restarts);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.solve_nodes, want.solve_nodes);
    EXPECT_EQ(got.resolve_nodes, want.resolve_nodes);
    EXPECT_EQ(got.allocation, want.allocation);
    EXPECT_NEAR(got.makespan, want.makespan, 1e-12 * std::fabs(want.makespan));
    EXPECT_EQ(got.trace_digest, want.trace_digest);

    if (threads == 1) {
      serial_trace = trace;
      if (const char* dir = std::getenv("HSLB_TRACE_DIR"))
        std::ofstream(std::string(dir) + "/" + name + ".csv") << trace;
    } else {
      EXPECT_EQ(trace, serial_trace);
    }
  }
}

}  // namespace hslb::pinning

// Forwarding hslb::Application decorator: every hook the pipeline or the
// closed-loop controller calls is forwarded unchanged to the wrapped
// registry-built application, inside a span named "app.<hook>". probe() is
// called concurrently from pool threads; the tracer is thread-safe.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hslb/pipeline.hpp"
#include "trace.hpp"

namespace perfbench {

class TracedApplication final : public hslb::Application {
 public:
  TracedApplication(hslb::Application& inner, Tracer& tracer, std::uint64_t op,
                    std::size_t parent)
      : inner_(inner), tracer_(tracer), op_(op), parent_(parent) {}

  std::string name() const override {
    const auto s = span("app.name");
    return inner_.name();
  }
  hslb::GatherPlan gather_plan() override {
    const auto s = span("app.gather_plan");
    return inner_.gather_plan();
  }
  double probe(const std::string& task, long long nodes,
               std::uint64_t rep) override {
    const auto s = span("app.probe");
    return inner_.probe(task, nodes, rep);
  }
  hslb::perf::FitOptions fit_options() const override {
    const auto s = span("app.fit_options");
    return inner_.fit_options();
  }
  hslb::SolveOutcome solve(
      const std::vector<std::pair<std::string, hslb::perf::FitResult>>& fits)
      override {
    const auto s = span("app.solve");
    return inner_.solve(fits);
  }
  double execute(const hslb::SolveOutcome& solution) override {
    const auto s = span("app.execute");
    return inner_.execute(solution);
  }
  hslb::sim::Machine machine() const override {
    const auto s = span("app.machine");
    return inner_.machine();
  }
  const hslb::sim::Trace* execution_trace() const override {
    const auto s = span("app.execution_trace");
    return inner_.execution_trace();
  }
  bool execution_completed() const override {
    const auto s = span("app.execution_completed");
    return inner_.execution_completed();
  }
  std::vector<std::pair<std::string, double>> execution_term_seconds()
      const override {
    const auto s = span("app.execution_term_seconds");
    return inner_.execution_term_seconds();
  }
  bool supports_epochs() const override {
    const auto s = span("app.supports_epochs");
    return inner_.supports_epochs();
  }
  hslb::perf::CostModelSpec fit_spec() const override {
    const auto s = span("app.fit_spec");
    return inner_.fit_spec();
  }
  void begin_epochs(const hslb::SolveOutcome& solution) override {
    const auto s = span("app.begin_epochs");
    inner_.begin_epochs(solution);
  }
  hslb::EpochOutcome execute_epoch(std::size_t epoch) override {
    const auto s = span("app.execute_epoch");
    return inner_.execute_epoch(epoch);
  }
  hslb::ResolveOutcome resolve(
      const std::vector<std::pair<std::string, hslb::perf::FitResult>>& fits,
      const hslb::SolveOutcome& incumbent) override {
    const auto s = span("app.resolve");
    return inner_.resolve(fits, incumbent);
  }
  double migration_cost(const hslb::SolveOutcome& from,
                        const hslb::SolveOutcome& to) const override {
    const auto s = span("app.migration_cost");
    return inner_.migration_cost(from, to);
  }
  double apply_allocation(const hslb::SolveOutcome& solution) override {
    const auto s = span("app.apply_allocation");
    return inner_.apply_allocation(solution);
  }
  double finish_epochs() override {
    const auto s = span("app.finish_epochs");
    return inner_.finish_epochs();
  }

 private:
  // Returned by value into a const local: guaranteed copy elision keeps the
  // non-movable span alive until the hook returns.
  ScopedSpan span(const char* hook) const {
    return ScopedSpan(&tracer_, hook, op_, parent_);
  }

  hslb::Application& inner_;
  Tracer& tracer_;
  std::uint64_t op_;
  std::size_t parent_;
};

}  // namespace perfbench

// The substrate registry seam: catalogue semantics, and — the load-bearing
// guarantee of the refactor — registry-built applications reproduce the
// classic run_pipeline drivers byte-identically (reports, traces, B&B node
// counts), including on a shared caller-owned ThreadPool with interleaved
// and concurrent runs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>

#include "cesm/pipeline.hpp"
#include "common/parallel.hpp"
#include "fmo/driver.hpp"
#include "fmo/scenario.hpp"
#include "hslb/pipeline.hpp"
#include "hslb/registry.hpp"
#include "substrates/registry_builtins.hpp"

namespace hslb {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { substrates::register_builtin_substrates(); }
};

TEST_F(RegistryTest, RegistrationIsIdempotent) {
  substrates::register_builtin_substrates();
  substrates::register_builtin_substrates();
  const auto all = SubstrateRegistry::instance().list();
  ASSERT_EQ(all.size(), 4u);
  // list() sorts by name.
  EXPECT_EQ(all[0].name, "amrex");
  EXPECT_EQ(all[1].name, "cesm");
  EXPECT_EQ(all[2].name, "fmm");
  EXPECT_EQ(all[3].name, "fmo");
  for (const auto& info : all) {
    EXPECT_FALSE(info.description.empty());
    EXPECT_FALSE(info.variants.empty());
    EXPECT_TRUE(SubstrateRegistry::instance().contains(info.name));
    EXPECT_NE(SubstrateRegistry::instance().find(info.name), nullptr);
  }
}

TEST_F(RegistryTest, UnknownSubstrateThrowsListingNames) {
  ScenarioSpec spec;
  spec.substrate = "gromacs";
  try {
    SubstrateRegistry::instance().make(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fmo"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("amrex"), std::string::npos);
  }
  EXPECT_FALSE(SubstrateRegistry::instance().contains("gromacs"));
  EXPECT_EQ(SubstrateRegistry::instance().find("gromacs"), nullptr);
}

TEST_F(RegistryTest, UnknownVariantThrows) {
  ScenarioSpec spec;
  spec.substrate = "fmo";
  spec.variant = "protein-ligand";
  EXPECT_THROW(SubstrateRegistry::instance().make(spec),
               std::invalid_argument);
}

TEST_F(RegistryTest, SpecStringStatesWhatWasSet) {
  // The spec of hslb fmo --comm-bound --link-gb 1 --mem-gb 1
  // --page-s-per-gb 0.5: no nodes=0 placeholder (the factory sizes the
  // machine, and the report's machine line states it), and the paging rate
  // shown.
  ScenarioSpec spec;
  spec.substrate = "fmo";
  spec.variant = "comm";
  spec.tasks = 48;
  spec.link_gb_per_s = 1.0;
  spec.memory_gb_per_node = 1.0;
  spec.page_s_per_gb = 0.5;
  const std::string s = spec.str();
  EXPECT_EQ(s.rfind("fmo/comm tasks=48 sys_seed=3 ", 0), 0u) << s;
  EXPECT_EQ(s.find("nodes="), std::string::npos) << s;
  EXPECT_NE(s.find(" link_gb=1 mem_gb=1 page_s_per_gb=0.5"), std::string::npos)
      << s;
  // A size left to the factory is left out; a size set is stated.
  spec.tasks = 0;
  spec.nodes = 768;
  spec.page_s_per_gb = 0.0;
  const std::string sized = spec.str();
  EXPECT_EQ(sized.rfind("fmo/comm nodes=768 sys_seed=3 ", 0), 0u) << sized;
  EXPECT_EQ(sized.find("page_s_per_gb"), std::string::npos) << sized;
}

/// Byte-identical report/trace comparison between a registry-built run and
/// a classic driver run.
void expect_reports_identical(const PipelineReport& a,
                              const PipelineReport& b) {
  EXPECT_EQ(a.application, b.application);
  EXPECT_EQ(a.predicted_total, b.predicted_total);
  EXPECT_EQ(a.actual_total, b.actual_total);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.exec.makespan, b.exec.makespan);
  EXPECT_EQ(a.exec.busy_unit_seconds, b.exec.busy_unit_seconds);
  EXPECT_EQ(a.exec.efficiency, b.exec.efficiency);
  EXPECT_EQ(a.exec.imbalance, b.exec.imbalance);
  EXPECT_EQ(a.exec.percent_imbalance, b.exec.percent_imbalance);
  EXPECT_EQ(a.exec_events, b.exec_events);
  EXPECT_EQ(a.solver.nodes, b.solver.nodes);
  EXPECT_EQ(a.solver.cuts, b.solver.cuts);
  EXPECT_EQ(a.solver.lp_solves, b.solver.lp_solves);
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_EQ(a.fits[i].task, b.fits[i].task);
    EXPECT_EQ(a.fits[i].r2, b.fits[i].r2);
  }
}

fmo::PipelineOptions small_fmo_options() {
  fmo::PipelineOptions opt;
  opt.threads = 1;
  return opt;
}

PipelineOptions single_thread() {
  PipelineOptions opt;
  opt.threads = 1;
  return opt;
}

TEST_F(RegistryTest, FmoRegistryAppMatchesRunPipeline) {
  const auto sys = fmo::make_system("water", 8);
  const auto opt = small_fmo_options();
  const auto classic = fmo::run_pipeline(sys, fmo::CostModel{}, 48, opt);

  ScenarioSpec spec;
  spec.substrate = "fmo";
  spec.variant = "water";
  spec.tasks = 8;
  spec.nodes = 48;
  const auto app = SubstrateRegistry::instance().make(spec);
  const auto run = Pipeline(single_thread()).run(*app);

  expect_reports_identical(run.report, classic.report);
  EXPECT_EQ(run.trace.to_csv(), classic.hslb.trace.to_csv());
  ASSERT_EQ(run.solution.allocation.tasks.size(),
            classic.allocation.tasks.size());
  for (std::size_t i = 0; i < classic.allocation.tasks.size(); ++i)
    EXPECT_EQ(run.solution.allocation.tasks[i].nodes,
              classic.allocation.tasks[i].nodes);

  // The registry app also reports the HSLB-vs-DLB baseline.
  auto* baseline = dynamic_cast<BaselineReporter*>(app.get());
  ASSERT_NE(baseline, nullptr);
  EXPECT_EQ(baseline->hslb_total_seconds(), classic.hslb.total_seconds);
  EXPECT_EQ(baseline->dlb_total_seconds(), classic.dlb.total_seconds);
}

TEST_F(RegistryTest, FmoBothPathsCertifyTheGreedy) {
  const auto sys = fmo::make_system("water", 6);
  const auto opt = small_fmo_options();
  const auto classic = fmo::run_pipeline(sys, fmo::CostModel{}, 24, opt);

  ScenarioSpec spec;
  spec.substrate = "fmo";
  spec.variant = "water";
  spec.tasks = 6;
  spec.nodes = 24;
  const auto app = SubstrateRegistry::instance().make(spec);
  const auto run = Pipeline(single_thread()).run(*app);

  // Both Solves are the certified greedy.
  EXPECT_TRUE(run.report.solver.certified);
  EXPECT_TRUE(classic.report.solver.certified);
  expect_reports_identical(run.report, classic.report);
}

TEST_F(RegistryTest, CesmRegistryAppMatchesRunPipeline) {
  cesm::PipelineOptions opt;
  opt.sim.seed = 7;  // the registry maps ScenarioSpec::run_seed (default 7)
  const auto classic = cesm::run_pipeline(cesm::Resolution::Deg1, 128, opt);

  ScenarioSpec spec;
  spec.substrate = "cesm";
  spec.variant = "layout1";
  spec.nodes = 128;
  const auto app = SubstrateRegistry::instance().make(spec);
  const auto run = Pipeline(single_thread()).run(*app);

  expect_reports_identical(run.report, classic.report);
  EXPECT_EQ(run.trace.to_csv(), classic.coupled.trace.to_csv());
  EXPECT_EQ(run.report.actual_total, classic.actual_total);
}

TEST_F(RegistryTest, SharedThreadPoolInterleavedParity) {
  ScenarioSpec fmm_spec;
  fmm_spec.substrate = "fmm";
  fmm_spec.tasks = 6;
  fmm_spec.nodes = 24;
  ScenarioSpec amrex_spec;
  amrex_spec.substrate = "amrex";
  amrex_spec.tasks = 6;
  amrex_spec.nodes = 24;

  // Solo reference runs, each on its own engine-owned pool.
  const auto& reg = SubstrateRegistry::instance();
  const Pipeline engine{single_thread()};
  auto fmm_solo = engine.run(*reg.make(fmm_spec));
  auto amrex_solo = engine.run(*reg.make(amrex_spec));

  // Interleaved runs on one shared caller-owned pool: A, B, A again.
  ThreadPool pool(4);
  auto fmm_app = reg.make(fmm_spec);
  auto amrex_app = reg.make(amrex_spec);
  auto fmm_shared = engine.run(*fmm_app, pool);
  auto amrex_shared = engine.run(*amrex_app, pool);
  auto fmm_again = engine.run(*fmm_app, pool);

  EXPECT_EQ(fmm_shared.trace.to_csv(), fmm_solo.trace.to_csv());
  EXPECT_EQ(fmm_again.trace.to_csv(), fmm_solo.trace.to_csv());
  EXPECT_EQ(amrex_shared.trace.to_csv(), amrex_solo.trace.to_csv());
  EXPECT_EQ(fmm_shared.report.actual_total, fmm_solo.report.actual_total);
  EXPECT_EQ(amrex_shared.report.actual_total, amrex_solo.report.actual_total);
  // The pool's size is reported, not the engine option.
  EXPECT_EQ(fmm_shared.report.threads, 4u);

  // Concurrent runs on the same pool from two threads: still identical.
  PipelineRun c1, c2;
  auto app1 = reg.make(fmm_spec);
  auto app2 = reg.make(amrex_spec);
  std::thread t1([&] { c1 = engine.run(*app1, pool); });
  std::thread t2([&] { c2 = engine.run(*app2, pool); });
  t1.join();
  t2.join();
  EXPECT_EQ(c1.trace.to_csv(), fmm_solo.trace.to_csv());
  EXPECT_EQ(c2.trace.to_csv(), amrex_solo.trace.to_csv());
}

}  // namespace
}  // namespace hslb

// Contradictory-flag rejection: the tool must fail loudly, before any
// pipeline work, when perturbation or machine flags make no sense together.
#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"

namespace hslb::cli {
namespace {

// Mirrors the fmo registration in main.cpp: run's flags with --fragments
// and the variant flags in place of --substrate, --variant and --tasks.
Args fmo_args(std::vector<const char*> extra) {
  std::vector<const char*> argv = {"fmo",   "--fragments", "4", "--nodes",
                                   "32",    "--threads",   "1"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  return Args(static_cast<int>(argv.size()), argv.data(),
              {"peptide", "comm-bound", "compute-only-model", "adaptive"},
              {"fragments", "nodes", "objective", "threads", "fit-points",
               "system-seed", "bench-seed", "bench-noise-cv", "noise-cv",
               "run-seed", "trace", "straggler-cv", "fail-node", "fail-time",
               "fail-downtime", "link-gb", "mem-gb", "page-s-per-gb",
               "rebalance-threshold", "refit-window", "max-epochs"});
}

// Mirrors the serve registration in main.cpp: serve is the subcommand that
// reads the branch-and-bound knobs (its solve-kind misses branch), over a
// one-request script written by cmd_client (registered as in main.cpp).
Args serve_args(std::vector<const char*> extra) {
  static const std::string script = [] {
    const std::string path = ::testing::TempDir() + "/hslb_cli_serve.txt";
    std::remove(path.c_str());
    std::vector<const char*> argv = {
        "client", "--kind", "solve", "--nodes", "64", "--tasks",
        "atm:400:3:1:2:1:0;ocn:250:2:1:1:1:0", "--out", path.c_str()};
    cmd_client(Args(static_cast<int>(argv.size()), argv.data(), {},
                    {"kind", "objective", "nodes", "tasks", "family",
                     "fragments", "system-seed", "bench-seed", "noise-cv",
                     "fit-points", "reps", "link-gb", "mem-gb",
                     "page-s-per-gb", "out"}));
    return path;
  }();
  std::vector<const char*> argv = {"serve", "--script", script.c_str()};
  argv.insert(argv.end(), extra.begin(), extra.end());
  return Args(static_cast<int>(argv.size()), argv.data(),
              {"no-warm-start", "no-presolve"},
              {"script", "threads", "batch", "cache-capacity",
               "solver-threads", "cut-age-limit", "refactor-interval",
               "refactor-fill-ratio", "responses"});
}

TEST(CliCommands, FailNodeWithoutFailTimeRejected) {
  EXPECT_THROW(cmd_fmo(fmo_args({"--fail-node", "3"})), std::invalid_argument);
}

TEST(CliCommands, FailTimeWithoutFailNodeRejected) {
  EXPECT_THROW(cmd_fmo(fmo_args({"--fail-time", "2.5"})),
               std::invalid_argument);
}

TEST(CliCommands, FailDowntimeWithoutFailNodeRejected) {
  EXPECT_THROW(cmd_fmo(fmo_args({"--fail-downtime", "1.0"})),
               std::invalid_argument);
}

TEST(CliCommands, NegativeStragglerCvRejected) {
  EXPECT_THROW(cmd_fmo(fmo_args({"--straggler-cv", "-0.1"})),
               std::invalid_argument);
}

TEST(CliCommands, PagingWithoutMemoryCapacityRejected) {
  EXPECT_THROW(cmd_fmo(fmo_args({"--page-s-per-gb", "0.5"})),
               std::invalid_argument);
}

TEST(CliCommands, CommBoundAndPeptideRejected) {
  EXPECT_THROW(cmd_fmo(fmo_args({"--comm-bound", "--peptide"})),
               std::invalid_argument);
}

TEST(CliCommands, RefactorIntervalBelowOneRejected) {
  EXPECT_THROW(cmd_serve(serve_args({"--refactor-interval", "0"})),
               std::invalid_argument);
}

TEST(CliCommands, RefactorFillRatioBelowOneRejected) {
  EXPECT_THROW(cmd_serve(serve_args({"--refactor-fill-ratio", "0.5"})),
               std::invalid_argument);
}

TEST(CliCommands, RefactorKnobsAccepted) {
  EXPECT_EQ(cmd_serve(serve_args({"--refactor-interval", "16",
                                  "--refactor-fill-ratio", "1.5"})),
            0);
}

TEST(CliCommands, ConsistentFailFlagsAccepted) {
  // A complete fail-stop spec passes validation and runs the pipeline.
  EXPECT_EQ(cmd_fmo(fmo_args({"--fail-node", "3", "--fail-time", "2.5",
                              "--fail-downtime", "1.0"})),
            0);
}

TEST(CliCommands, RebalanceThresholdWithoutAdaptiveRejected) {
  EXPECT_THROW(cmd_fmo(fmo_args({"--rebalance-threshold", "0.2"})),
               std::invalid_argument);
}

TEST(CliCommands, RefitWindowWithoutAdaptiveRejected) {
  EXPECT_THROW(cmd_fmo(fmo_args({"--refit-window", "2"})),
               std::invalid_argument);
}

TEST(CliCommands, MaxEpochsWithoutAdaptiveRejected) {
  EXPECT_THROW(cmd_fmo(fmo_args({"--max-epochs", "5"})),
               std::invalid_argument);
}

TEST(CliCommands, AdaptiveFlagsAccepted) {
  // The full closed-loop spec passes validation and runs the pipeline.
  EXPECT_EQ(cmd_fmo(fmo_args({"--adaptive", "--rebalance-threshold", "0.2",
                              "--refit-window", "2", "--max-epochs", "8"})),
            0);
}

}  // namespace
}  // namespace hslb::cli

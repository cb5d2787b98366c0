// Entry point of the `hslb` tool; see commands.hpp for the subcommands.
#include <cstdio>
#include <exception>
#include <set>
#include <string>

#include "cli/commands.hpp"

int main(int argc, char** argv) {
  using namespace hslb::cli;
  if (argc < 2) return usage(1);
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") return usage(0);

  try {
    if (cmd == "fit") {
      return cmd_fit(Args(argc - 1, argv + 1, {}, {"bench", "out", "min-c"}));
    }
    if (cmd == "solve") {
      return cmd_solve(
          Args(argc - 1, argv + 1, {}, {"models", "nodes", "objective"}));
    }
    if (cmd == "cesm") {
      return cmd_cesm(Args(argc - 1, argv + 1,
                           {"unconstrained-ocean", "adaptive"},
                           {"resolution", "nodes", "layout", "tsync",
                            "export-ampl", "threads", "trace", "straggler-cv",
                            "fail-node", "fail-time", "fail-downtime",
                            "rebalance-threshold", "refit-window",
                            "max-epochs"}));
    }
    if (cmd == "run" || cmd == "fmo") {
      // fmo spells run --substrate fmo: --fragments and a variant flag in
      // place of --substrate/--variant/--tasks, every other flag shared.
      std::set<std::string> flags{"adaptive", "compute-only-model"};
      std::set<std::string> keys{
          "nodes", "objective", "threads", "fit-points", "system-seed",
          "bench-seed", "bench-noise-cv", "noise-cv", "run-seed", "trace",
          "straggler-cv", "fail-node", "fail-time", "fail-downtime",
          "link-gb", "mem-gb", "page-s-per-gb", "rebalance-threshold",
          "refit-window", "max-epochs"};
      if (cmd == "fmo") {
        flags.insert({"peptide", "comm-bound"});
        keys.insert("fragments");
        return cmd_fmo(Args(argc - 1, argv + 1, flags, keys));
      }
      keys.insert({"substrate", "variant", "tasks"});
      return cmd_run(Args(argc - 1, argv + 1, flags, keys));
    }
    if (cmd == "substrates") {
      return cmd_substrates(Args(argc - 1, argv + 1, {}, {}));
    }
    if (cmd == "advise") {
      return cmd_advise(Args(argc - 1, argv + 1, {},
                             {"resolution", "layout", "min-nodes", "max-nodes",
                              "efficiency"}));
    }
    if (cmd == "serve") {
      return cmd_serve(Args(argc - 1, argv + 1,
                            {"no-warm-start", "no-presolve"},
                            {"script", "threads", "batch", "cache-capacity",
                             "solver-threads", "cut-age-limit",
                             "refactor-interval", "refactor-fill-ratio",
                             "responses"}));
    }
    if (cmd == "client") {
      return cmd_client(Args(argc - 1, argv + 1, {},
                             {"kind", "objective", "nodes", "tasks", "family",
                              "fragments", "system-seed", "bench-seed",
                              "noise-cv", "fit-points", "reps", "link-gb",
                              "mem-gb", "page-s-per-gb", "out"}));
    }
    std::fprintf(stderr, "unknown command: %s\n\n", cmd.c_str());
    return usage(1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

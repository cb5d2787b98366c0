// Subcommand implementations of the `hslb` command-line tool — the
// "black box" of the paper's §V: "develop a 'black box' from HSLB which
// would allow anyone, especially scientists without experience at 'manual'
// optimization, to run CESM efficiently on supercomputers or clusters."
//
// Workflow commands (composable through CSV files):
//   hslb fit    --bench bench.csv [--out models.csv]
//   hslb solve  --models models.csv --nodes N [--objective min-max]
//
// Simulated end-to-end reproductions:
//   hslb cesm   --resolution 1|8 --nodes N [--layout 1|2|3]
//               [--unconstrained-ocean] [--tsync S] [--export-ampl f.mod]
//   hslb fmo    --fragments F --nodes N [--peptide|--comm-bound]
//               (hslb run --substrate fmo, spelled for FMO)
//   hslb advise --resolution 1|8 [--layout L] [--efficiency 0.5]
#pragma once

#include "common/cli.hpp"

namespace hslb::cli {

int cmd_fit(const Args& args);
int cmd_solve(const Args& args);
int cmd_cesm(const Args& args);
/// Runs the four-step pipeline over any substrate registered with the
/// hslb::SubstrateRegistry (--substrate NAME), replacing per-substrate
/// dispatch chains with one registry lookup.
int cmd_run(const Args& args);
/// `hslb run --substrate fmo` with --fragments F (default 48) as the size
/// and --peptide / --comm-bound as the variant.
int cmd_fmo(const Args& args);
/// Lists the registered substrates and their variants.
int cmd_substrates(const Args& args);
int cmd_advise(const Args& args);
/// Allocation service: replays a request script through the batched,
/// cache-backed AllocationService (in-process harness; deterministic for
/// any --threads).
int cmd_serve(const Args& args);
/// Formats one service request line (and optionally appends it to a script
/// file) — the composable counterpart of `hslb serve --script`.
int cmd_client(const Args& args);

/// Prints usage to stdout; returns the given exit code.
int usage(int code);

}  // namespace hslb::cli

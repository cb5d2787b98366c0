// Request/response protocol of the allocation service.
//
// A Request describes one allocation instance — either an explicit task
// list with a node budget ("solve" kind: the models are given, only the
// Solve step runs) or an FMO system spec ("fmo" kind: the full
// Gather -> Fit -> Solve -> Execute pipeline runs on a generated system).
// A Response carries the allocation and its diagnostics back.
//
// Canonicalization (canonicalize) normalizes an instance to a unique
// representative — tasks sorted by name, family lowercased, defaults
// resolved, every double quantized to 6 significant digits — and
// signature() hashes that representative with the shared FNV-1a
// (common/hash.hpp), so instances that differ only in spelling, task
// order, or sub-tolerance parameter noise key the same cache slot.
// Thread counts are deliberately NOT part of the instance: results are
// identical for every thread count (the pipeline determinism contract),
// which makes them presentation, not identity.
//
// The wire format is one request per line — `solve`/`fmo` followed by
// key=value pairs — writable by `hslb client` and replayable by
// `hslb serve --script`; '#' starts a comment.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "hslb/allocation.hpp"
#include "hslb/objective.hpp"

namespace hslb::service {

enum class RequestKind { Solve, Fmo };

std::string to_string(RequestKind k);

/// One task of a "solve"-kind request: a classic power-law cost model
/// T(n) = a/n + b*n^c + d with node bounds.
struct SolveTaskSpec {
  std::string name;
  double a = 0.0;
  double b = 0.0;
  double c = 1.0;
  double d = 0.0;
  long long min_nodes = 1;
  long long max_nodes = 0;  ///< 0 = the request's budget
};

struct Request {
  RequestKind kind = RequestKind::Solve;
  Objective objective = Objective::MinMax;
  /// Total node budget (both kinds; the fmo kind's machine size).
  long long budget = 64;

  // -- solve kind -----------------------------------------------------------
  std::vector<SolveTaskSpec> tasks;

  // -- fmo kind -------------------------------------------------------------
  std::string family = "water";  ///< water | peptide | comm
  long long fragments = 24;
  std::uint64_t system_seed = 3;   ///< generator seed
  std::uint64_t bench_seed = 42;   ///< gather probe noise stream
  double noise_cv = 0.03;
  long long fit_points = 5;
  long long repetitions = 1;
  /// Machine extensions (unmodeled by default, like the CLI).
  double link_gb = std::numeric_limits<double>::infinity();
  double mem_gb = std::numeric_limits<double>::infinity();
  double page_s_per_gb = 0.0;
};

/// Returns the canonical representative of `r` (see header doc). Throws
/// std::invalid_argument on malformed instances: duplicate task names, an
/// empty solve task list, a task model failing perf::Model::valid(), an
/// unknown family, min_nodes > max_nodes, or a budget below the sum of node
/// floors.
Request canonicalize(const Request& r);

/// FNV-1a signature of a canonicalized request. Only meaningful on the
/// output of canonicalize() — hashing a raw request is a bug.
std::uint64_t signature(const Request& canonical);

/// Dissimilarity between two canonicalized instances, used to pick the
/// nearest cached donor for cross-instance warm starts. Infinity unless
/// both are solve-kind requests in one solution space (same objective and
/// task structure — otherwise a donor seed could not be lifted); otherwise
/// a weighted sum of parameter distances where 0 means identical.
double signature_distance(const Request& a, const Request& b);

/// What the service sends back. The payload fields (everything to_line
/// prints) are a pure function of the canonicalized request; the delivery
/// metadata below them describes how THIS response was produced and is
/// excluded from to_line so an exact-repeat cache hit is byte-identical
/// to the solve that populated it.
struct Response {
  std::uint64_t signature = 0;
  std::string status;            ///< solver status string
  Allocation allocation;
  double objective_value = 0.0;  ///< fold_objective over predicted times
  double predicted_total = 0.0;  ///< predicted run metric (fmo: SCC seconds)
  double actual_total = 0.0;     ///< executed metric (0 for solve kind)
  /// Percent imbalance lambda = (max node busy / mean over ALL nodes - 1)
  /// x 100 (arXiv:2104.01688). Executed for fmo requests, predicted from
  /// the model times for solve requests.
  double percent_imbalance = 0.0;
  std::size_t bnb_nodes = 0;
  std::size_t bnb_cuts = 0;
  /// The solve was seeded from a donor: its allocation, optimum or cuts
  /// (seed_bnb_options). Always false on cold solves, which start from the
  /// exact greedy alone, and on fmo-kind and max-min solves, which run no
  /// tree.
  bool warm_seeded = false;
  /// The warm result failed the service's feasibility audit and this
  /// response came from the cold re-solve.
  bool audit_fallback = false;

  // -- delivery metadata (NOT part of to_line) ------------------------------
  bool cache_hit = false;
  std::uint64_t donor_signature = 0;  ///< nearest donor seeded from (0 = none)
  double latency_seconds = 0.0;

  /// Deterministic one-line payload rendering (%.17g where exactness
  /// matters): the byte-identity contract of exact-repeat cache hits.
  std::string to_line() const;
};

/// Parses one wire-format line (see header doc); throws
/// std::invalid_argument with a message naming the offending token.
Request parse_request(const std::string& line);

/// Formats `r` as a wire-format line parse_request accepts
/// (format -> parse -> canonicalize is the identity on canonical requests).
std::string format_request(const Request& r);

/// Reads a request script: one request per line, blank lines and
/// '#'-comments skipped.
std::vector<Request> load_script(std::istream& in);
std::vector<Request> load_script_file(const std::string& path);

}  // namespace hslb::service

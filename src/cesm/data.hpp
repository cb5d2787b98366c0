// Published CESM benchmark data (Table III and §II/§III of the paper) and
// the ground-truth calibration derived from it.
//
// The real substrate — CESM1.1.1 on Intrepid — is unavailable; instead we
// calibrate the simulator's true per-component scaling curves through the
// paper's published (nodes, seconds) observations, so that the optimization
// landscape HSLB faces here is the published one (see DESIGN.md,
// substitution table).
#pragma once

#include <array>
#include <vector>

#include "cesm/component.hpp"
#include "perf/benchdata.hpp"
#include "perf/model.hpp"

namespace hslb::cesm {

enum class Resolution {
  Deg1,      ///< 1 degree FV atmosphere/land, 1 degree ocean/ice (CESM1.1.1)
  EighthDeg  ///< 1/8 degree HOMME-SE atm, 1/4 FV land, 1/10 ocean/ice (CESM1.2)
};

const char* to_string(Resolution r);

/// One published timing observation for a component.
struct Observation {
  long long nodes;
  double seconds;
};

/// All published (nodes, seconds) points for a component at a resolution
/// (manual + HSLB-actual + unconstrained-ocean rows of Table III).
const std::vector<Observation>& published_observations(Resolution r,
                                                       Component c);

/// One Table III block: a configuration and its published numbers.
struct PublishedCase {
  Resolution resolution;
  long long total_nodes;
  bool ocean_constrained;

  // Manual ("human optimization") columns; the 1/8-degree unconstrained
  // blocks have no manual column (has_manual = false).
  bool has_manual = true;
  std::array<long long, 4> manual_nodes{};
  std::array<double, 4> manual_seconds{};
  double manual_total = 0.0;

  // HSLB columns.
  std::array<long long, 4> hslb_nodes{};         // predicted allocation
  std::array<double, 4> hslb_predicted_seconds{};
  double hslb_predicted_total = 0.0;
  std::array<long long, 4> hslb_actual_nodes{};  // as actually run
  std::array<double, 4> hslb_actual_seconds{};
  double hslb_actual_total = 0.0;
};

/// The six Table III blocks in paper order.
const std::vector<PublishedCase>& published_cases();

/// Ocean "sweet spot" node sets (§III-A: hard-coded processor-count
/// constraints translated into the model, Table I line 5; §IV-B for 1/8).
const std::vector<long long>& ocean_allowed_nodes(Resolution r);

/// Atmosphere allowed set at 1 degree: {1, ..., 1638, 1664} (Table I
/// line 6). At 1/8 degree the paper gives no explicit set; the model uses a
/// plain integer range instead (see layouts.hpp).
const std::vector<long long>& atm_allowed_nodes_deg1();

/// Ground-truth scaling model for a component: the Fit of its published
/// observations, pinned as constants so the simulator's "true" curves do
/// not move with the Fit.
const perf::Model& ground_truth(Resolution r, Component c);

/// Ground-truth fit quality (R^2 against the published points), for
/// documentation output.
double ground_truth_r2(Resolution r, Component c);

}  // namespace hslb::cesm

// Fine-tuning extension: the coupler (CPL7) and river (RTM) components.
//
// §II: "The river model is typically run on the same processors as the CLM
// model and the coupler is run on the same processors as the atmosphere.
// The coupler and the river models take less time to run compared to the
// other components, so these components were not included in our HSLB
// models, but they can be added later for fine tuning the work load
// balance."
//
// This module adds them to the layout-1 model:
//
//   T_icelnd >= T_ice(n_ice)
//   T_icelnd >= T_lnd(n_lnd) + T_rof(n_lnd)      (river shares lnd's nodes)
//   T >= T_icelnd + T_atm(n_atm) + T_cpl(n_atm)  (coupler shares atm's)
//   T >= T_ocn(n_ocn)
//
// No public timings exist for CPL7/RTM on Intrepid; synthetic models are
// derived as small fractions of the host component's curve (documented in
// DESIGN.md's substitution table) and can be replaced with fitted ones.
#pragma once

#include "cesm/layouts.hpp"
#include "minlp/bnb.hpp"

namespace hslb::cesm {

struct MinorComponents {
  perf::Model cpl;  ///< coupler, runs on the atmosphere's nodes
  perf::Model rof;  ///< river transport, runs on the land model's nodes
};

/// Synthetic minor-component models: a fixed fraction of the host
/// component's fitted curve (default: coupler ~6% of atm, river ~12% of
/// lnd — "less time to run compared to the other components").
MinorComponents synthetic_minor_components(
    const std::array<perf::Model, 4>& majors, double cpl_fraction = 0.06,
    double rof_fraction = 0.12);

/// Builds the layout-1 MINLP extended with coupler and river terms.
/// Only Layout::Hybrid is supported (the paper's focus layout).
minlp::Model build_finetuned_minlp(const LayoutProblem& problem,
                                   const MinorComponents& minor,
                                   std::array<std::size_t, 4>* n_vars_out = nullptr);

/// A fine-tuned solve: the allocation and the branch-and-bound run.
struct FinetunedSolution : Solution {
  minlp::BnbResult stats;
};

/// Solves the fine-tuned model by branch-and-bound (the extra terms break
/// the layout structure solve_layout relies on); predicted_seconds still
/// reports the four major components, predicted_total is finetuned_total of
/// the allocation, so it includes the minor contributions (not the
/// branch-and-bound's objective, which may sit slightly below it).
FinetunedSolution solve_finetuned(const LayoutProblem& problem,
                                  const MinorComponents& minor,
                                  const minlp::BnbOptions& options = {});

/// Total time of an allocation under the fine-tuned layout-1 semantics.
double finetuned_total(const LayoutProblem& problem,
                       const MinorComponents& minor,
                       const std::array<long long, 4>& nodes);

}  // namespace hslb::cesm

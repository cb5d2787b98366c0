// Measurement-noise models for the simulated Gather step.
//
// Real benchmark timings are noisy; §IV-A singles out the sea-ice (CICE)
// component, whose decomposition-dependent block sizes "increased the noise
// in the sea ice performance curve fit". We model multiplicative lognormal
// noise with unit mean and a per-task coefficient of variation, so noisy
// timings stay positive and unbiased.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/rng.hpp"

namespace hslb::sim {

class NoiseModel {
 public:
  /// cv = coefficient of variation of the multiplicative factor (0 = exact).
  /// Requires valid_cv(cv).
  explicit NoiseModel(double cv, std::uint64_t seed = 2024);

  /// The coefficients of variation a draw can use: cv >= 0 with cv^2
  /// finite, i.e. cv at most sqrt(DBL_MAX) ~ 1.34e154. Above that the
  /// lognormal's log1p(cv^2) overflows and every draw is NaN.
  static bool valid_cv(double cv) { return cv >= 0.0 && std::isfinite(cv * cv); }

  /// Applies one noise draw to a true duration (> 0 stays > 0).
  double perturb(double true_seconds);

  double cv() const { return cv_; }

 private:
  double cv_;
  Rng rng_;
};

}  // namespace hslb::sim

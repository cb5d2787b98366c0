#include "sim/noise.hpp"

#include "common/contracts.hpp"

namespace hslb::sim {

NoiseModel::NoiseModel(double cv, std::uint64_t seed) : cv_(cv), rng_(seed) {
  HSLB_EXPECTS(valid_cv(cv));
}

double NoiseModel::perturb(double true_seconds) {
  HSLB_EXPECTS(true_seconds > 0.0);
  return true_seconds * rng_.lognormal_unit_mean(cv_);
}

}  // namespace hslb::sim

// The HSLB performance function (Table II, line 1):
//
//   T(n) = T_sca(n) + T_nln(n) + T_ser
//        = a / n    + b * n^c  + d
//
//  * a/n   — perfectly scalable part (Amdahl's parallel fraction),
//  * b*n^c — partially parallelized / communication / synchronization time
//            (increasing on Intrepid, b and c "almost equal to zero"),
//  * d     — serial floor, dominating as n grows.
//
// With a, b, d >= 0 and c >= 1 the function is convex in n, which is the
// property §III-E exploits: the continuous relaxation of the allocation
// MINLP is convex, so branch-and-bound proves global optimality.
#pragma once

#include <array>
#include <string>

namespace hslb::perf {

struct Model {
  double a = 0.0;  ///< scalable seconds (T_sca = a/n)
  double b = 0.0;  ///< nonlinear coefficient (T_nln = b*n^c)
  double c = 1.0;  ///< nonlinear exponent
  double d = 0.0;  ///< serial seconds (T_ser)

  /// Wall-clock prediction at n nodes (n > 0).
  double eval(double n) const;

  /// The three contributions separately (for Figure-2-style output).
  double sca(double n) const;
  double nln(double n) const;
  double ser() const { return d; }

  /// dT/dn — used for outer-approximation cuts.
  double deriv_n(double n) const;

  /// Gradient with respect to (a, b, c, d) at fixed n — used by the fitter.
  std::array<double, 4> grad_params(double n) const;

  /// True when T is convex on n > 0 (a,b,d >= 0 and b*n^c convex: c >= 1
  /// or b == 0).
  bool is_convex() const;

  /// True when T is non-increasing over [lo, hi] (b == 0, or the minimum of
  /// T lies at or beyond hi).
  bool is_decreasing_on(double lo, double hi) const;

  /// Node count minimizing T on [lo, hi] (continuous; golden-section on the
  /// convex model, exact endpoint handling otherwise).
  double argmin(double lo, double hi) const;

  /// Best *integer* node count in [lo, hi] and its time.
  std::pair<long long, double> argmin_int(long long lo, long long hi) const;

  std::string str() const;

  /// The rule a model crossing an input boundary (a model CSV, a service
  /// request) must pass: a, b, c and d finite, and a, b, d >= 0.
  bool valid() const;

  bool operator==(const Model&) const = default;

  /// Algebraic expression in terms of a named variable, e.g.
  /// "27459.7/n_atm + 0.000193*n_atm^1.2285 + 43.73" (for AMPL export).
  std::string expr(const std::string& var) const;
};

}  // namespace hslb::perf

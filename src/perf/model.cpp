#include "perf/model.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace hslb::perf {

double Model::eval(double n) const {
  HSLB_EXPECTS(n > 0.0);
  return a / n + b * std::pow(n, c) + d;
}

double Model::sca(double n) const {
  HSLB_EXPECTS(n > 0.0);
  return a / n;
}

double Model::nln(double n) const {
  HSLB_EXPECTS(n > 0.0);
  return b * std::pow(n, c);
}

double Model::deriv_n(double n) const {
  HSLB_EXPECTS(n > 0.0);
  return -a / (n * n) + b * c * std::pow(n, c - 1.0);
}

std::array<double, 4> Model::grad_params(double n) const {
  HSLB_EXPECTS(n > 0.0);
  const double pnc = std::pow(n, c);
  return {1.0 / n, pnc, b * pnc * std::log(n), 1.0};
}

bool Model::is_convex() const {
  if (a < 0.0 || b < 0.0 || d < 0.0) return false;
  return b == 0.0 || c >= 1.0;
}

bool Model::is_decreasing_on(double lo, double hi) const {
  HSLB_EXPECTS(0.0 < lo && lo <= hi);
  if (b == 0.0) return true;  // a/n + d
  // For convex T it suffices that T'(hi) <= 0; in general check both ends
  // and the stationary point location.
  return deriv_n(hi) <= 0.0 && deriv_n(lo) <= 0.0;
}

double Model::argmin(double lo, double hi) const {
  HSLB_EXPECTS(0.0 < lo && lo <= hi);
  if (b == 0.0 || a == 0.0) {
    // Monotone: decreasing (a/n+d) or increasing (b n^c + d).
    return b == 0.0 ? hi : lo;
  }
  // Stationary point of a/n + b n^c: a/n^2 = b c n^(c-1)
  //   n* = (a / (b c))^(1/(c+1))
  const double n_star = std::pow(a / (b * c), 1.0 / (c + 1.0));
  if (n_star <= lo) return lo;
  if (n_star >= hi) return hi;
  return n_star;
}

std::pair<long long, double> Model::argmin_int(long long lo, long long hi) const {
  HSLB_EXPECTS(0 < lo && lo <= hi);
  const double n_star = argmin(static_cast<double>(lo), static_cast<double>(hi));
  long long best_n = lo;
  double best_t = eval(static_cast<double>(lo));
  for (long long cand :
       {static_cast<long long>(std::floor(n_star)),
        static_cast<long long>(std::ceil(n_star)), lo, hi}) {
    if (cand < lo || cand > hi) continue;
    const double t = eval(static_cast<double>(cand));
    if (t < best_t) {
      best_t = t;
      best_n = cand;
    }
  }
  return {best_n, best_t};
}

bool Model::valid() const {
  return std::isfinite(a) && std::isfinite(b) && std::isfinite(c) &&
         std::isfinite(d) && a >= 0.0 && b >= 0.0 && d >= 0.0;
}

std::string Model::str() const {
  return strings::format("T(n) = %.6g/n + %.6g*n^%.4f + %.6g", a, b, c, d);
}

std::string Model::expr(const std::string& var) const {
  std::string out = strings::format("%.12g/%s", a, var.c_str());
  if (b != 0.0)
    out += strings::format(" + %.12g*%s^%.12g", b, var.c_str(), c);
  if (d != 0.0) out += strings::format(" + %.12g", d);
  return out;
}

}  // namespace hslb::perf

#include "perf/terms.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace hslb::perf {

namespace {

double comm_seconds(double slope, double n) {
  return slope * std::max(0.0, n);
}

double memory_seconds(const MemoryRow& m, double n) {
  HSLB_EXPECTS(n > 0.0);
  return m.gamma * std::max(0.0, m.demand_gb - m.capacity_gb * n);
}

double memory_deriv(const MemoryRow& m, double n) {
  HSLB_EXPECTS(n > 0.0);
  // One-sided subgradient at the kink — valid for OA cuts on a convex fn.
  if (m.demand_gb <= m.capacity_gb * n) return 0.0;
  return -m.gamma * m.capacity_gb;
}

std::string comm_expr(double slope, const std::string& var) {
  return strings::format("%.12g*%s", slope, var.c_str());
}

std::string memory_expr(const MemoryRow& m, const std::string& var) {
  return strings::format("%.12g*max(0, %.12g - %.12g*%s)", m.gamma,
                         m.demand_gb, m.capacity_gb, var.c_str());
}

/// A paging memory charge is curved; a gamma = 0 row adds nothing to T.
bool pages(const std::optional<MemoryRow>& m) {
  return m && m->gamma != 0.0;
}

}  // namespace

CostModel::CostModel(const Model& power_law) : power_law_(power_law) {}

void CostModel::pin_comm(double volume_gb, double beta_s_per_gb) {
  HSLB_EXPECTS(volume_gb >= 0.0);
  HSLB_EXPECTS(beta_s_per_gb >= 0.0);
  comm_slope_ = beta_s_per_gb * volume_gb;
}

void CostModel::pin_memory(double demand_gb, double capacity_gb_per_node,
                           double gamma_s_per_gb) {
  HSLB_EXPECTS(demand_gb >= 0.0);
  HSLB_EXPECTS(capacity_gb_per_node > 0.0);
  HSLB_EXPECTS(gamma_s_per_gb >= 0.0);
  memory_ = MemoryRow{capacity_gb_per_node, demand_gb, gamma_s_per_gb};
}

double CostModel::eval(double n) const {
  double v = power_law_.eval(n);
  if (comm_slope_) v += comm_seconds(*comm_slope_, n);
  if (memory_) v += memory_seconds(*memory_, n);
  return v;
}

double CostModel::deriv_n(double n) const {
  double v = power_law_.deriv_n(n);
  if (comm_slope_) v += *comm_slope_;
  if (memory_) v += memory_deriv(*memory_, n);
  return v;
}

bool CostModel::is_convex() const {
  // The pinned charges are convex by their non-negativity preconditions.
  return power_law_.is_convex();
}

std::vector<std::pair<std::string, double>> CostModel::term_seconds(
    double n) const {
  std::vector<std::pair<std::string, double>> out{
      {"powerlaw", power_law_.eval(n)}};
  if (comm_slope_) out.emplace_back("comm", comm_seconds(*comm_slope_, n));
  if (memory_) out.emplace_back("memory", memory_seconds(*memory_, n));
  return out;
}

double CostModel::eval_nonlinear(double n) const {
  double v = power_law_.eval(n);
  if (pages(memory_)) v += memory_seconds(*memory_, n);
  return v;
}

double CostModel::deriv_nonlinear(double n) const {
  double v = power_law_.deriv_n(n);
  if (pages(memory_)) v += memory_deriv(*memory_, n);
  return v;
}

std::string CostModel::expr_nonlinear(const std::string& var) const {
  std::string out = power_law_.expr(var);
  if (pages(memory_)) out += " + " + memory_expr(*memory_, var);
  return out;
}

bool CostModel::linear_part(double& slope, double& intercept) const {
  slope = comm_slope_.value_or(0.0);
  intercept = 0.0;
  return slope != 0.0;
}

long long CostModel::min_feasible_nodes() const {
  if (!memory_) return 1;
  return std::max(1LL, static_cast<long long>(std::ceil(
                           memory_->demand_gb / memory_->capacity_gb)));
}

std::pair<long long, double> CostModel::argmin_int(long long lo,
                                                   long long hi) const {
  HSLB_EXPECTS(0 < lo && lo <= hi);
  if (!comm_slope_ && !memory_) return power_law_.argmin_int(lo, hi);

  const auto at = [this](long long n) {
    return eval(static_cast<double>(n));
  };
  if (is_convex()) {
    // Bisect on the first difference: for convex T the predicate
    // T(n+1) >= T(n) is monotone, and its first true index is the argmin.
    long long a = lo, b = hi;
    while (a < b) {
      const long long mid = a + (b - a) / 2;
      if (at(mid + 1) >= at(mid)) {
        b = mid;
      } else {
        a = mid + 1;
      }
    }
    return {a, at(a)};
  }
  long long best_n = lo;
  double best_t = at(lo);
  for (long long n = lo + 1; n <= hi; ++n) {
    const double t = at(n);
    if (t < best_t) {
      best_t = t;
      best_n = n;
    }
  }
  return {best_n, best_t};
}

std::string CostModel::str() const { return "T(n) = " + expr("n"); }

std::string CostModel::expr(const std::string& var) const {
  std::string out = power_law_.expr(var);
  if (comm_slope_) out += " + " + comm_expr(*comm_slope_, var);
  if (memory_) out += " + " + memory_expr(*memory_, var);
  return out;
}

}  // namespace hslb::perf

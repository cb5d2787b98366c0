#include "perf/terms.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace hslb::perf {

// ---------------------------------------------------------------------------
// CostTerm defaults

void CostTerm::grad_params(std::span<const double>, double,
                           std::span<double>) const {
  HSLB_ASSERT(!"grad_params called on a term without fitted parameters");
}

void CostTerm::fit_bounds(const FitScales&, std::span<double> lo,
                          std::span<double> hi) const {
  for (auto& v : lo) v = 0.0;
  for (auto& v : hi) v = std::numeric_limits<double>::infinity();
}

void CostTerm::start_box(const FitScales& scales, std::span<double> lo,
                         std::span<double> hi) const {
  fit_bounds(scales, lo, hi);
}

bool CostTerm::linear_in_n(std::span<const double>, double&, double&) const {
  return false;
}

bool CostTerm::knapsack_row(double&, double&) const { return false; }

namespace {

// ---------------------------------------------------------------------------
// powerlaw — the classic a/n + b*n^c + d, delegating to perf::Model so a
// single-term model reproduces the seed's float operations exactly.

class PowerLawTerm final : public CostTerm {
 public:
  const std::string& name() const override {
    static const std::string n = "powerlaw";
    return n;
  }
  std::size_t num_params() const override { return 4; }

  double eval(std::span<const double> p, double n) const override {
    return as_model(p).eval(n);
  }
  double deriv_n(std::span<const double> p, double n) const override {
    return as_model(p).deriv_n(n);
  }
  void grad_params(std::span<const double> p, double n,
                   std::span<double> out) const override {
    const auto g = as_model(p).grad_params(n);
    for (std::size_t j = 0; j < 4; ++j) out[j] = g[j];
  }
  void fit_bounds(const FitScales& s, std::span<double> lo,
                  std::span<double> hi) const override {
    // Positivity constraints (Table II, line 11) and the
    // convexity-preserving exponent window — the pre-refactor bounds.
    const double a_hi = s.a_scale * s.max_an;
    const double d_hi = s.d_scale * s.min_y;
    const double b_hi = std::max(s.max_y, 1.0);
    lo[0] = 0.0;
    lo[1] = 0.0;
    lo[2] = s.min_c;
    lo[3] = 0.0;
    hi[0] = a_hi;
    hi[1] = b_hi;
    hi[2] = s.max_c;
    hi[3] = d_hi;
  }
  void start_box(const FitScales& s, std::span<double> lo,
                 std::span<double> hi) const override {
    const double a_hi = s.a_scale * s.max_an;
    const double d_hi = s.d_scale * s.min_y;
    const double b_hi = std::max(s.max_y, 1.0);
    lo[0] = 1e-6 * std::max(s.max_an, 1.0);
    lo[1] = 1e-12;
    lo[2] = s.min_c;
    lo[3] = 1e-9 * std::max(s.min_y, 1e-3);
    hi[0] = a_hi;
    hi[1] = 1e-2 * b_hi;
    hi[2] = s.max_c;
    hi[3] = std::max(d_hi, 2e-9);
  }
  bool is_convex(std::span<const double> p) const override {
    return as_model(p).is_convex();
  }
  std::string expr(std::span<const double> p,
                   const std::string& var) const override {
    return as_model(p).expr(var);
  }

  static Model as_model(std::span<const double> p) {
    return Model{p[0], p[1], p[2], p[3]};
  }
};

// ---------------------------------------------------------------------------
// compute — a/n^c scalable work alone (params a, c).

class ComputeTerm final : public CostTerm {
 public:
  const std::string& name() const override {
    static const std::string n = "compute";
    return n;
  }
  std::size_t num_params() const override { return 2; }

  double eval(std::span<const double> p, double n) const override {
    HSLB_EXPECTS(n > 0.0);
    return p[0] / std::pow(n, p[1]);
  }
  double deriv_n(std::span<const double> p, double n) const override {
    HSLB_EXPECTS(n > 0.0);
    return -p[0] * p[1] / std::pow(n, p[1] + 1.0);
  }
  void grad_params(std::span<const double> p, double n,
                   std::span<double> out) const override {
    const double pnc = std::pow(n, -p[1]);
    out[0] = pnc;
    out[1] = -p[0] * pnc * std::log(n);
  }
  void fit_bounds(const FitScales& s, std::span<double> lo,
                  std::span<double> hi) const override {
    lo[0] = 0.0;
    lo[1] = 0.5;  // sub-linear through quadratic scaling window
    hi[0] = s.a_scale * s.max_an;
    hi[1] = 2.0;
  }
  void start_box(const FitScales& s, std::span<double> lo,
                 std::span<double> hi) const override {
    lo[0] = 1e-6 * std::max(s.max_an, 1.0);
    lo[1] = 0.9;
    hi[0] = s.a_scale * s.max_an;
    hi[1] = 1.1;
  }
  bool is_convex(std::span<const double> p) const override {
    return p[0] >= 0.0 && p[1] > 0.0;
  }
  std::string expr(std::span<const double> p,
                   const std::string& var) const override {
    return strings::format("%.12g/%s^%.12g", p[0], var.c_str(), p[1]);
  }
};

// ---------------------------------------------------------------------------
// serial — the floor d alone (param d).

class SerialTerm final : public CostTerm {
 public:
  const std::string& name() const override {
    static const std::string n = "serial";
    return n;
  }
  std::size_t num_params() const override { return 1; }

  double eval(std::span<const double> p, double) const override {
    return p[0];
  }
  double deriv_n(std::span<const double>, double) const override {
    return 0.0;
  }
  void grad_params(std::span<const double>, double,
                   std::span<double> out) const override {
    out[0] = 1.0;
  }
  void fit_bounds(const FitScales& s, std::span<double> lo,
                  std::span<double> hi) const override {
    lo[0] = 0.0;
    hi[0] = s.d_scale * s.min_y;
  }
  void start_box(const FitScales& s, std::span<double> lo,
                 std::span<double> hi) const override {
    lo[0] = 1e-9 * std::max(s.min_y, 1e-3);
    hi[0] = std::max(s.d_scale * s.min_y, 2e-9);
  }
  bool is_convex(std::span<const double> p) const override {
    return p[0] >= 0.0;
  }
  std::string expr(std::span<const double> p,
                   const std::string&) const override {
    return strings::format("%.12g", p[0]);
  }
  bool linear_in_n(std::span<const double> p, double& slope,
                   double& intercept) const override {
    slope = 0.0;
    intercept = p[0];
    return true;
  }
};

// ---------------------------------------------------------------------------
// comm — beta * volume * n (per-neighbour halo fan-out).

class CommTerm final : public CostTerm {
 public:
  CommTerm(double volume_gb, std::optional<double> beta)
      : volume_gb_(volume_gb), beta_(beta) {
    HSLB_EXPECTS(volume_gb_ >= 0.0);
    if (beta_) HSLB_EXPECTS(*beta_ >= 0.0);
  }

  const std::string& name() const override {
    static const std::string n = "comm";
    return n;
  }
  std::size_t num_params() const override { return beta_ ? 0 : 1; }

  double eval(std::span<const double> p, double n) const override {
    return beta_of(p) * volume_gb_ * std::max(0.0, n);
  }
  double deriv_n(std::span<const double> p, double) const override {
    return beta_of(p) * volume_gb_;
  }
  void grad_params(std::span<const double>, double n,
                   std::span<double> out) const override {
    out[0] = volume_gb_ * n;
  }
  void fit_bounds(const FitScales& s, std::span<double> lo,
                  std::span<double> hi) const override {
    lo[0] = 0.0;
    // The slope at one node cannot exceed the largest observation.
    hi[0] = s.max_y / std::max(volume_gb_, 1e-12);
  }
  void start_box(const FitScales& s, std::span<double> lo,
                 std::span<double> hi) const override {
    lo[0] = 1e-12;
    hi[0] = 1e-1 * s.max_y / std::max(volume_gb_, 1e-12);
  }
  bool is_convex(std::span<const double> p) const override {
    return beta_of(p) >= 0.0;
  }
  std::string expr(std::span<const double> p,
                   const std::string& var) const override {
    return strings::format("%.12g*%s", beta_of(p) * volume_gb_, var.c_str());
  }
  bool linear_in_n(std::span<const double> p, double& slope,
                   double& intercept) const override {
    slope = beta_of(p) * volume_gb_;
    intercept = 0.0;
    return true;
  }

 private:
  double beta_of(std::span<const double> p) const {
    return beta_ ? *beta_ : p[0];
  }

  double volume_gb_;
  std::optional<double> beta_;
};

// ---------------------------------------------------------------------------
// memory — gamma * max(0, mem - capacity*n) plus the knapsack row. The
// argument of max() is the total GB spilled past node memory across the
// task's span, so the term equals the runtime's paging charge
// (Machine::page_seconds summed over the span) exactly.

class MemoryTerm final : public CostTerm {
 public:
  MemoryTerm(double memory_gb, double capacity_gb, std::optional<double> gamma)
      : memory_gb_(memory_gb), capacity_gb_(capacity_gb), gamma_(gamma) {
    HSLB_EXPECTS(memory_gb_ >= 0.0);
    HSLB_EXPECTS(capacity_gb_ > 0.0);
    if (gamma_) HSLB_EXPECTS(*gamma_ >= 0.0);
  }

  const std::string& name() const override {
    static const std::string n = "memory";
    return n;
  }
  std::size_t num_params() const override { return gamma_ ? 0 : 1; }

  double eval(std::span<const double> p, double n) const override {
    HSLB_EXPECTS(n > 0.0);
    return gamma_of(p) * std::max(0.0, memory_gb_ - capacity_gb_ * n);
  }
  double deriv_n(std::span<const double> p, double n) const override {
    HSLB_EXPECTS(n > 0.0);
    // One-sided subgradient at the kink — valid for OA cuts on a convex fn.
    if (memory_gb_ <= capacity_gb_ * n) return 0.0;
    return -gamma_of(p) * capacity_gb_;
  }
  void grad_params(std::span<const double>, double n,
                   std::span<double> out) const override {
    out[0] = std::max(0.0, memory_gb_ - capacity_gb_ * n);
  }
  void fit_bounds(const FitScales& s, std::span<double> lo,
                  std::span<double> hi) const override {
    lo[0] = 0.0;
    hi[0] = s.max_y / std::max(memory_gb_, 1e-12);
  }
  void start_box(const FitScales& s, std::span<double> lo,
                 std::span<double> hi) const override {
    lo[0] = 1e-12;
    hi[0] = 1e-1 * s.max_y / std::max(memory_gb_, 1e-12);
  }
  bool is_convex(std::span<const double> p) const override {
    return gamma_of(p) >= 0.0;
  }
  std::string expr(std::span<const double> p,
                   const std::string& var) const override {
    return strings::format("%.12g*max(0, %.12g - %.12g*%s)", gamma_of(p),
                           memory_gb_, capacity_gb_, var.c_str());
  }
  bool linear_in_n(std::span<const double> p, double& slope,
                   double& intercept) const override {
    // A zero paging slope leaves only the knapsack row; report the zero
    // affine part so the MINLP epigraph skips the term entirely.
    if (gamma_of(p) != 0.0) return false;
    slope = 0.0;
    intercept = 0.0;
    return true;
  }
  bool knapsack_row(double& capacity, double& demand) const override {
    capacity = capacity_gb_;
    demand = memory_gb_;
    return true;
  }

 private:
  double gamma_of(std::span<const double> p) const {
    return gamma_ ? *gamma_ : p[0];
  }

  double memory_gb_;
  double capacity_gb_;
  std::optional<double> gamma_;
};

}  // namespace

TermPtr power_law_term() {
  static const TermPtr term = std::make_shared<PowerLawTerm>();
  return term;
}

TermPtr compute_term() {
  static const TermPtr term = std::make_shared<ComputeTerm>();
  return term;
}

TermPtr serial_term() {
  static const TermPtr term = std::make_shared<SerialTerm>();
  return term;
}

TermPtr make_comm_term(double volume_gb) {
  return std::make_shared<CommTerm>(volume_gb, std::nullopt);
}

TermPtr make_comm_term(double volume_gb, double beta_s_per_gb) {
  return std::make_shared<CommTerm>(volume_gb, beta_s_per_gb);
}

TermPtr make_memory_term(double memory_gb, double capacity_gb_per_node) {
  return std::make_shared<MemoryTerm>(memory_gb, capacity_gb_per_node,
                                      std::nullopt);
}

TermPtr make_memory_term(double memory_gb, double capacity_gb_per_node,
                         double gamma_s_per_gb) {
  return std::make_shared<MemoryTerm>(memory_gb, capacity_gb_per_node,
                                      gamma_s_per_gb);
}

// ---------------------------------------------------------------------------
// CostModel

CostModel::CostModel(const Model& power_law) {
  add(power_law_term(),
      {power_law.a, power_law.b, power_law.c, power_law.d});
}

void CostModel::add(TermPtr term, std::vector<double> params) {
  HSLB_EXPECTS(term != nullptr);
  HSLB_EXPECTS(params.size() == term->num_params());
  entries_.push_back({std::move(term), std::move(params)});
}

const CostTerm& CostModel::term(std::size_t i) const {
  HSLB_EXPECTS(i < entries_.size());
  return *entries_[i].term;
}

std::span<const double> CostModel::params(std::size_t i) const {
  HSLB_EXPECTS(i < entries_.size());
  return entries_[i].params;
}

double CostModel::term_seconds(std::size_t i, double n) const {
  HSLB_EXPECTS(i < entries_.size());
  return entries_[i].term->eval(entries_[i].params, n);
}

double CostModel::eval(double n) const {
  double v = 0.0;
  for (const auto& e : entries_) v += e.term->eval(e.params, n);
  return v;
}

double CostModel::deriv_n(double n) const {
  double v = 0.0;
  for (const auto& e : entries_) v += e.term->deriv_n(e.params, n);
  return v;
}

bool CostModel::is_convex() const {
  for (const auto& e : entries_)
    if (!e.term->is_convex(e.params)) return false;
  return true;
}

double CostModel::eval_nonlinear(double n) const {
  double v = 0.0;
  double slope = 0.0, intercept = 0.0;
  for (const auto& e : entries_)
    if (!e.term->linear_in_n(e.params, slope, intercept))
      v += e.term->eval(e.params, n);
  return v;
}

double CostModel::deriv_nonlinear(double n) const {
  double v = 0.0;
  double slope = 0.0, intercept = 0.0;
  for (const auto& e : entries_)
    if (!e.term->linear_in_n(e.params, slope, intercept))
      v += e.term->deriv_n(e.params, n);
  return v;
}

bool CostModel::has_nonlinear() const {
  double slope = 0.0, intercept = 0.0;
  for (const auto& e : entries_)
    if (!e.term->linear_in_n(e.params, slope, intercept)) return true;
  return false;
}

std::string CostModel::expr_nonlinear(const std::string& var) const {
  std::string out;
  double slope = 0.0, intercept = 0.0;
  for (const auto& e : entries_) {
    if (e.term->linear_in_n(e.params, slope, intercept)) continue;
    if (!out.empty()) out += " + ";
    out += e.term->expr(e.params, var);
  }
  return out;
}

bool CostModel::linear_part(double& slope, double& intercept) const {
  slope = 0.0;
  intercept = 0.0;
  for (const auto& e : entries_) {
    double s = 0.0, i0 = 0.0;
    if (e.term->linear_in_n(e.params, s, i0)) {
      slope += s;
      intercept += i0;
    }
  }
  return slope != 0.0 || intercept != 0.0;
}

long long CostModel::min_feasible_nodes() const {
  long long floor_nodes = 1;
  for (const auto& e : entries_) {
    double cap = 0.0, demand = 0.0;
    if (!e.term->knapsack_row(cap, demand)) continue;
    HSLB_ASSERT(cap > 0.0);
    floor_nodes = std::max(
        floor_nodes, static_cast<long long>(std::ceil(demand / cap)));
  }
  return floor_nodes;
}

std::pair<long long, double> CostModel::argmin_int(long long lo,
                                                   long long hi) const {
  HSLB_EXPECTS(0 < lo && lo <= hi);
  HSLB_EXPECTS(!entries_.empty());
  if (entries_.size() == 1 && entries_[0].term.get() == power_law_term().get())
    return PowerLawTerm::as_model(entries_[0].params).argmin_int(lo, hi);

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

std::optional<Model> CostModel::power_law() const {
  for (const auto& e : entries_) {
    if (e.term.get() == power_law_term().get())
      return PowerLawTerm::as_model(e.params);
  }
  return std::nullopt;
}

std::string CostModel::str() const {
  std::string out = "T(n) = ";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += " + ";
    out += entries_[i].term->expr(entries_[i].params, "n");
  }
  return out;
}

std::string CostModel::expr(const std::string& var) const {
  std::string out;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += " + ";
    out += entries_[i].term->expr(entries_[i].params, var);
  }
  return out;
}

}  // namespace hslb::perf

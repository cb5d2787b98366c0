#include "lp/model.hpp"

#include <algorithm>
#include <span>

#include "common/contracts.hpp"

namespace hslb::lp {

std::size_t Model::add_variable(double lb, double ub, double objective) {
  HSLB_EXPECTS(lb <= ub);
  col_lb_.push_back(lb);
  col_ub_.push_back(ub);
  obj_.push_back(objective);
  cols_.emplace_back();
  return col_lb_.size() - 1;
}

std::size_t Model::add_constraint(std::vector<Coeff> coeffs, double lb,
                                  double ub) {
  HSLB_EXPECTS(lb <= ub);
  // Merge duplicate columns, validate indices, drop exact-zero sums (an
  // explicit zero would otherwise sit in the sparsity pattern forever). The
  // stable sort keeps duplicates in the order given, so each column sums
  // its entries in that order.
  for (const auto& [col, v] : coeffs) HSLB_EXPECTS(col < num_cols());
  const auto by_col = [](const Coeff& a, const Coeff& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(coeffs.begin(), coeffs.end(), by_col))
    std::stable_sort(coeffs.begin(), coeffs.end(), by_col);
  const std::size_t row_index = rows_.size();
  std::size_t out = 0;
  for (std::size_t i = 0; i < coeffs.size();) {
    const std::size_t col = coeffs[i].first;
    double v = 0.0;
    for (; i < coeffs.size() && coeffs[i].first == col; ++i)
      v += coeffs[i].second;
    if (v == 0.0) continue;
    coeffs[out++] = {col, v};
    cols_[col].push_back({row_index, v});  // rows append-only: stays ordered
    ++nnz_;
  }
  coeffs.resize(out);
  rows_.push_back(std::move(coeffs));
  row_lb_.push_back(lb);
  row_ub_.push_back(ub);
  return rows_.size() - 1;
}

std::size_t Model::add_equality(std::vector<Coeff> coeffs, double rhs) {
  return add_constraint(std::move(coeffs), rhs, rhs);
}

void Model::set_col_lower(std::size_t col, double lb) {
  HSLB_EXPECTS(col < num_cols());
  col_lb_[col] = lb;
}

void Model::set_col_upper(std::size_t col, double ub) {
  HSLB_EXPECTS(col < num_cols());
  col_ub_[col] = ub;
}

double Model::col_lower(std::size_t col) const {
  HSLB_EXPECTS(col < num_cols());
  return col_lb_[col];
}

double Model::col_upper(std::size_t col) const {
  HSLB_EXPECTS(col < num_cols());
  return col_ub_[col];
}

void Model::set_objective(std::size_t col, double c) {
  HSLB_EXPECTS(col < num_cols());
  obj_[col] = c;
}

double Model::objective(std::size_t col) const {
  HSLB_EXPECTS(col < num_cols());
  return obj_[col];
}

const std::vector<Coeff>& Model::row(std::size_t r) const {
  HSLB_EXPECTS(r < num_rows());
  return rows_[r];
}

const std::vector<ColEntry>& Model::col(std::size_t c) const {
  HSLB_EXPECTS(c < num_cols());
  return cols_[c];
}

double Model::row_lower(std::size_t r) const {
  HSLB_EXPECTS(r < num_rows());
  return row_lb_[r];
}

double Model::row_upper(std::size_t r) const {
  HSLB_EXPECTS(r < num_rows());
  return row_ub_[r];
}

double Model::row_activity(std::size_t r, std::span<const double> x) const {
  HSLB_EXPECTS(r < num_rows());
  HSLB_EXPECTS(x.size() == num_cols());
  double acc = 0.0;
  for (const auto& [col, v] : rows_[r]) acc += v * x[col];
  return acc;
}

bool Model::is_feasible(std::span<const double> x, double tol) const {
  HSLB_EXPECTS(x.size() == num_cols());
  for (std::size_t j = 0; j < num_cols(); ++j) {
    if (x[j] < col_lb_[j] - tol || x[j] > col_ub_[j] + tol) return false;
  }
  for (std::size_t r = 0; r < num_rows(); ++r) {
    const double a = row_activity(r, x);
    const double scale = 1.0 + std::max(std::abs(row_lb_[r] == -kInf ? 0.0 : row_lb_[r]),
                                        std::abs(row_ub_[r] == kInf ? 0.0 : row_ub_[r]));
    if (a < row_lb_[r] - tol * scale || a > row_ub_[r] + tol * scale) return false;
  }
  return true;
}

}  // namespace hslb::lp

#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace hslb::linalg {

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  HSLB_EXPECTS(!rows.empty());
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    HSLB_EXPECTS(rows[r].size() == m.cols());
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Vector Matrix::mul(std::span<const double> x) const {
  HSLB_EXPECTS(x.size() == cols_);
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) y[r] = dot(row(r), x);
  return y;
}

Vector Matrix::mul_transpose(std::span<const double> y) const {
  HSLB_EXPECTS(y.size() == rows_);
  Vector out(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto rr = row(r);
    for (std::size_t c = 0; c < cols_; ++c) out[c] += rr[c] * y[r];
  }
  return out;
}

Matrix Matrix::mul(const Matrix& other) const {
  HSLB_EXPECTS(cols_ == other.rows());
  Matrix out(rows_, other.cols());
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < other.cols(); ++j)
        out(i, j) += a * other(k, j);
    }
  }
  return out;
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

std::string Matrix::str(int precision) const {
  std::ostringstream out;
  out.precision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    out << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) out << (c ? ", " : "") << (*this)(r, c);
    out << (r + 1 == rows_ ? "]" : ";\n");
  }
  return out.str();
}

double dot(std::span<const double> a, std::span<const double> b) {
  HSLB_EXPECTS(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double norm_inf(std::span<const double> a) {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::fabs(v));
  return m;
}

Vector axpy(std::span<const double> a, double s, std::span<const double> b) {
  HSLB_EXPECTS(a.size() == b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + s * b[i];
  return out;
}

Vector scale(std::span<const double> a, double s) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

}  // namespace hslb::linalg

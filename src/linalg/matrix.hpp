// Dense row-major matrix and vector operations.
//
// Sized for this library's needs: the Fit step's least-squares columns
// (rows = benchmark points, at most 3 columns) and dense test oracles.
// Clarity and bounds-checked contracts over blocking/tiling.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/contracts.hpp"

namespace hslb::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer data; all rows must have equal length.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of order n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    HSLB_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    HSLB_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    HSLB_EXPECTS(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    HSLB_EXPECTS(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Matrix transpose.
  Matrix transposed() const;

  /// Matrix-vector product; x.size() must equal cols().
  Vector mul(std::span<const double> x) const;

  /// Transpose-matrix-vector product A^T y; y.size() must equal rows().
  Vector mul_transpose(std::span<const double> y) const;


  /// Matrix-matrix product; this->cols() must equal other.rows().
  Matrix mul(const Matrix& other) const;

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Human-readable rendering (for debugging/logging).
  std::string str(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Dot product; sizes must match.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double norm2(std::span<const double> a);

/// Infinity norm (max absolute value); 0 for empty input.
double norm_inf(std::span<const double> a);

/// out = a + s * b; sizes must match.
Vector axpy(std::span<const double> a, double s, std::span<const double> b);

/// Element-wise scaling.
Vector scale(std::span<const double> a, double s);

}  // namespace hslb::linalg

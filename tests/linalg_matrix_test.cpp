#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace hslb::linalg {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
}

TEST(Matrix, OutOfRangeThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m(2, 0), ContractViolation);
  EXPECT_THROW(m(0, 2), ContractViolation);
}

TEST(Matrix, FromRowsValidatesShape) {
  EXPECT_THROW(Matrix::from_rows({{1.0, 2.0}, {3.0}}), ContractViolation);
  const auto m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, IdentityActsAsIdentity) {
  const auto id = Matrix::identity(3);
  const std::vector<double> x{1.0, -2.0, 3.0};
  const auto y = id.mul(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Matrix, TransposeInvolution) {
  const auto m = Matrix::from_rows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  const auto tt = t.transposed();
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(tt(r, c), m(r, c));
}

TEST(Matrix, MatVec) {
  const auto m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const auto y = m.mul(std::vector<double>{1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, MulTransposeMatchesExplicitTranspose) {
  const auto m = Matrix::from_rows({{1.0, 2.0, 0.5}, {3.0, 4.0, -1.0}});
  const std::vector<double> y{2.0, -1.0};
  const auto a = m.mul_transpose(y);
  const auto b = m.transposed().mul(y);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-14);
}

TEST(Matrix, MatMatKnownProduct) {
  const auto a = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const auto b = Matrix::from_rows({{0.0, 1.0}, {1.0, 0.0}});
  const auto c = a.mul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(Matrix, DimensionMismatchThrows) {
  const auto a = Matrix::from_rows({{1.0, 2.0}});
  EXPECT_THROW(a.mul(std::vector<double>{1.0}), ContractViolation);
  const auto b = Matrix::from_rows({{1.0, 2.0}});
  EXPECT_THROW(a.mul(b), ContractViolation);
}

TEST(VectorOps, DotAndNorms) {
  const std::vector<double> a{3.0, 4.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 4.0);
}

TEST(VectorOps, Axpy) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{10.0, 20.0};
  const auto r = axpy(a, 0.5, b);
  EXPECT_DOUBLE_EQ(r[0], 6.0);
  EXPECT_DOUBLE_EQ(r[1], 12.0);
}

TEST(VectorOps, Scale) {
  const auto r = scale(std::vector<double>{1.0, -2.0}, -3.0);
  EXPECT_DOUBLE_EQ(r[0], -3.0);
  EXPECT_DOUBLE_EQ(r[1], 6.0);
}

TEST(Matrix, FrobeniusNorm) {
  const auto m = Matrix::from_rows({{3.0, 0.0}, {0.0, 4.0}});
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

}  // namespace
}  // namespace hslb::linalg

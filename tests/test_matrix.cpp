// Unit tests for the dense matrix/vector algebra oracle.
#include "oracles/matrix.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "math/rng.hpp"

namespace rge::oracles {
namespace {

using math::Rng;

TEST(Vec, ConstructionAndAccess) {
  Vec v(3, 2.0);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 2.0);
  Vec w{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(w[2], 3.0);
}

TEST(Vec, Arithmetic) {
  const Vec a{1.0, 2.0};
  const Vec b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec{-2.0, 3.0}));
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ((Vec{-3.0, 2.0}).inf_norm(), 3.0);
}

TEST(Vec, DimensionMismatchThrows) {
  Vec a{1.0, 2.0};
  const Vec b{1.0};
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW((void)a.dot(b), std::invalid_argument);
}

TEST(Mat, ConstructionAndShape) {
  const Mat m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_FALSE(m.square());
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  EXPECT_THROW(Mat({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Mat, IdentityDiagColumnRow) {
  const Mat i = Mat::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  const Mat d = Mat::diag(Vec{2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Mat, Multiply) {
  const Mat a{{1.0, 2.0}, {3.0, 4.0}};
  const Mat b{{5.0, 6.0}, {7.0, 8.0}};
  const Mat c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
  const Vec v = a * Vec{1.0, 1.0};
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
  EXPECT_THROW(a * Mat(3, 3), std::invalid_argument);
  EXPECT_THROW(a * Vec{1.0}, std::invalid_argument);
}

TEST(Mat, TransposeTraceNorm) {
  const Mat a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Mat at = a.transpose();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_DOUBLE_EQ(at(2, 1), 6.0);
}

TEST(Mat, InverseKnown) {
  const Mat a{{4.0, 7.0}, {2.0, 6.0}};
  const Mat inv = a.inverse();
  EXPECT_NEAR(inv(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(inv(0, 1), -0.7, 1e-12);
  EXPECT_NEAR(inv(1, 0), -0.2, 1e-12);
  EXPECT_NEAR(inv(1, 1), 0.4, 1e-12);
  EXPECT_TRUE((a * inv).approx_equal(Mat::identity(2), 1e-12));
}

TEST(Mat, SingularInverseThrows) {
  const Mat s{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(s.inverse(), SingularMatrixError);
}

TEST(Mat, CholeskyKnown) {
  const Mat a{{4.0, 2.0}, {2.0, 5.0}};
  const Mat l = a.cholesky();
  EXPECT_TRUE((l * l.transpose()).approx_equal(a, 1e-12));
  EXPECT_DOUBLE_EQ(l(0, 1), 0.0);
  EXPECT_THROW((Mat{{-1.0}}).cholesky(), SingularMatrixError);
  EXPECT_THROW((Mat{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}}).cholesky(),
               std::invalid_argument);
}

TEST(Mat, SolveKnown) {
  const Mat a{{3.0, 2.0}, {1.0, 2.0}};
  const Vec x = a.solve(Vec{12.0, 8.0});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_THROW(a.solve(Vec{1.0}), std::invalid_argument);
  EXPECT_THROW((Mat{{0.0, 0.0}, {0.0, 0.0}}).solve(Vec{1.0, 1.0}),
               SingularMatrixError);
}

TEST(Mat, Symmetrize) {
  Mat a{{1.0, 2.0}, {4.0, 1.0}};
  a.symmetrize();
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 3.0);
}

TEST(Mat, OuterAndQuadraticForm) {
  const Mat a{{2.0, 0.0}, {0.0, 3.0}};
  EXPECT_DOUBLE_EQ(quadratic_form(a, Vec{1.0, 2.0}), 14.0);
}

// Property-style sweep: random well-conditioned matrices invert and solve
// consistently across sizes.
class MatrixRandomTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MatrixRandomTest, InverseRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(1234 + n);
  Mat a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += static_cast<double>(n);  // diagonally dominant
  }
  const Mat inv = a.inverse();
  EXPECT_TRUE((a * inv).approx_equal(Mat::identity(n), 1e-9));
  EXPECT_TRUE((inv * a).approx_equal(Mat::identity(n), 1e-9));
}

TEST_P(MatrixRandomTest, SolveMatchesInverse) {
  const std::size_t n = GetParam();
  Rng rng(99 + n);
  Mat a(n, n);
  Vec b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += static_cast<double>(n);
    b[i] = rng.uniform(-5.0, 5.0);
  }
  const Vec x = a.solve(b);
  const Vec x2 = a.inverse() * b;
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x2[i], 1e-9);
  // Residual check.
  const Vec r = a * x - b;
  EXPECT_LT(r.inf_norm(), 1e-9);
}

TEST_P(MatrixRandomTest, CholeskyOfGramMatrix) {
  const std::size_t n = GetParam();
  Rng rng(7 + n);
  Mat g(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) g(i, j) = rng.uniform(-1.0, 1.0);
  }
  Mat spd = g * g.transpose();
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 0.5;
  const Mat l = spd.cholesky();
  EXPECT_TRUE((l * l.transpose()).approx_equal(spd, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatrixRandomTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12));

}  // namespace
}  // namespace rge::oracles

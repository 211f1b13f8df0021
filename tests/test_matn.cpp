// Fixed-dimension matrix/EKF parity: MatN/VecN/EkfN must be operation-
// for-operation mirrors of the dynamic oracle Mat / ExtendedKalmanFilter,
// so every result here is asserted bit-identical (==, not near) — the
// compile-time types are drop-in replacements on the hot paths, not
// approximations.
#include "math/matn.hpp"

#include <array>
#include <cmath>

#include <gtest/gtest.h>

#include "math/rng.hpp"
#include "oracles/kalman.hpp"
#include "oracles/matrix.hpp"

namespace rge::math {
namespace {

using oracles::ExtendedKalmanFilter;
using oracles::Mat;
using oracles::MeasurementModel;
using oracles::ProcessModel;
using oracles::UpdateResult;
using oracles::Vec;

template <std::size_t R, std::size_t C>
Mat to_dyn(const MatN<R, C>& a) {
  Mat m(R, C);
  for (std::size_t i = 0; i < R; ++i) {
    for (std::size_t j = 0; j < C; ++j) m(i, j) = a(i, j);
  }
  return m;
}

template <std::size_t R, std::size_t C>
MatN<R, C> random_matn(Rng& rng) {
  MatN<R, C> m;
  for (std::size_t i = 0; i < R; ++i) {
    for (std::size_t j = 0; j < C; ++j) m(i, j) = rng.uniform(-2.0, 2.0);
  }
  return m;
}

TEST(MatN, MultiplyMatchesDynamicBitExact) {
  Rng rng(11);
  for (int rep = 0; rep < 50; ++rep) {
    const auto a = random_matn<3, 4>(rng);
    const auto b = random_matn<4, 2>(rng);
    const MatN<3, 2> c = a * b;
    const Mat ref = to_dyn(a) * to_dyn(b);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(c(i, j), ref(i, j));
    }
  }
}

TEST(MatN, MultiplySkipsStructuralZerosLikeDynamic) {
  // Mat::operator* skips a(i,k) == 0.0 contributions; the accumulation
  // order (and therefore the rounding) only matches if MatN does too.
  Rng rng(12);
  auto a = random_matn<4, 4>(rng);
  a(0, 1) = 0.0;
  a(2, 2) = 0.0;
  a(3, 0) = 0.0;
  const auto b = random_matn<4, 4>(rng);
  const MatN<4, 4> c = a * b;
  const Mat ref = to_dyn(a) * to_dyn(b);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(c(i, j), ref(i, j));
  }
}

TEST(MatN, VectorProductAndQuadraticFormMatchDynamic) {
  Rng rng(13);
  for (int rep = 0; rep < 50; ++rep) {
    const auto a = random_matn<3, 3>(rng);
    VecN<3> x;
    for (auto& v : x.d) v = rng.uniform(-1.0, 1.0);
    const VecN<3> y = a * x;
    const Vec ref = to_dyn(a) * Vec{x[0], x[1], x[2]};
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(y[i], ref[i]);
    EXPECT_EQ(quadratic_form_n(a, x),
              quadratic_form(to_dyn(a), Vec{x[0], x[1], x[2]}));
  }
}

TEST(MatN, InverseMatchesDynamicBitExact) {
  Rng rng(14);
  for (int rep = 0; rep < 50; ++rep) {
    auto a = random_matn<3, 3>(rng);
    for (std::size_t i = 0; i < 3; ++i) a(i, i) += 3.0;  // well-conditioned
    const MatN<3, 3> inv = a.inverse();
    const Mat ref = to_dyn(a).inverse();
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(inv(i, j), ref(i, j));
    }
  }
}

TEST(MatN, SolveMatchesDynamicBitExact) {
  Rng rng(15);
  for (int rep = 0; rep < 50; ++rep) {
    auto a = random_matn<4, 4>(rng);
    for (std::size_t i = 0; i < 4; ++i) a(i, i) += 4.0;
    VecN<4> b;
    for (auto& v : b.d) v = rng.uniform(-1.0, 1.0);
    const VecN<4> x = a.solve(b);
    const Vec ref = to_dyn(a).solve(Vec{b[0], b[1], b[2], b[3]});
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(x[i], ref[i]);
  }
}

TEST(MatN, SingularInverseAndSolveThrowLikeDynamic) {
  MatN<2, 2> a;  // zero matrix
  EXPECT_THROW(a.inverse(), SingularMatrixError);
  EXPECT_THROW(a.solve(VecN<2>{{1.0, 2.0}}), SingularMatrixError);
}

TEST(MatN, TransposeSymmetrizeIdentity) {
  Rng rng(16);
  const auto a = random_matn<2, 3>(rng);
  const MatN<3, 2> at = a.transpose();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(at(j, i), a(i, j));
  }
  auto s = random_matn<3, 3>(rng);
  Mat sd = to_dyn(s);
  s.symmetrize();
  sd.symmetrize();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(s(i, j), sd(i, j));
  }
  const auto id = MatN<3, 3>::identity();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

// ---- EkfN vs the dynamic ExtendedKalmanFilter ---------------------------

/// Constant-velocity 2-state filter driven through the dynamic EKF and
/// EkfN<2> side by side; position measurements, one gated.
TEST(EkfN, PredictUpdateMatchesDynamicFilterBitExact) {
  const double dt = 0.1;
  Mat f_dyn(2, 2);
  f_dyn(0, 0) = 1.0;
  f_dyn(0, 1) = dt;
  f_dyn(1, 1) = 1.0;
  MatN<2, 2> f_fix;
  f_fix(0, 0) = 1.0;
  f_fix(0, 1) = dt;
  f_fix(1, 1) = 1.0;

  Mat q_dyn(2, 2);
  q_dyn(0, 0) = 1e-4;
  q_dyn(1, 1) = 1e-3;
  MatN<2, 2> q_fix;
  q_fix(0, 0) = 1e-4;
  q_fix(1, 1) = 1e-3;

  Mat h_dyn(1, 2);
  h_dyn(0, 0) = 1.0;
  MatN<1, 2> h_fix;
  h_fix(0, 0) = 1.0;
  Mat r_dyn(1, 1);
  r_dyn(0, 0) = 0.25;
  MatN<1, 1> r_fix;
  r_fix(0, 0) = 0.25;

  Mat p0 = Mat(2, 2);
  p0(0, 0) = 1.0;
  p0(1, 1) = 1.0;
  ExtendedKalmanFilter dyn(Vec{0.0, 1.0}, p0);

  MatN<2, 2> p0_fix;
  p0_fix(0, 0) = 1.0;
  p0_fix(1, 1) = 1.0;
  EkfN<2> fix(VecN<2>{{0.0, 1.0}}, p0_fix);

  ProcessModel process;
  process.f = [&](const Vec& x, const Vec&) { return f_dyn * x; };
  process.jacobian = [&](const Vec&, const Vec&) { return f_dyn; };
  process.q = q_dyn;
  const MeasurementModel meas = oracles::linear_measurement(h_dyn, r_dyn);

  Rng rng(17);
  const double gate = 9.0;
  for (int k = 0; k < 200; ++k) {
    dyn.predict(process, Vec{});
    const VecN<2> x_next = f_fix * fix.state();
    fix.predict(x_next, f_fix, q_fix);

    // Every 4th measurement is an outlier the gate should reject in both.
    const double z =
        (k % 4 == 3) ? 1e3 : fix.state()[0] + rng.gaussian(0.0, 0.5);
    double nis_fix = 0.0;
    const UpdateResult res = dyn.update(meas, Vec{z}, gate);
    const bool ok_fix =
        fix.update(VecN<1>{{fix.state()[0]}}, h_fix, r_fix, VecN<1>{{z}},
                   gate, &nis_fix);
    ASSERT_EQ(res.accepted, ok_fix) << "step " << k;
    EXPECT_EQ(res.nis, nis_fix) << "step " << k;

    ASSERT_EQ(dyn.state().size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(fix.state()[i], dyn.state()[i]) << "step " << k;
      for (std::size_t j = 0; j < 2; ++j) {
        EXPECT_EQ(fix.covariance()(i, j), dyn.covariance()(i, j))
            << "step " << k;
      }
    }
  }
}

TEST(EkfN, SingularInnovationCovarianceThrows) {
  EkfN<1> fix;  // default state: zero covariance
  MatN<1, 1> h;  // zero observation matrix, zero R -> singular S
  MatN<1, 1> r;
  EXPECT_THROW(
      fix.update(VecN<1>{{0.0}}, h, r, VecN<1>{{1.0}}, 0.0, nullptr),
      SingularMatrixError);
}

}  // namespace
}  // namespace rge::math

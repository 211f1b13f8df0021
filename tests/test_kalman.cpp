// Unit tests for the generic Extended Kalman Filter oracle.
#include "oracles/kalman.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "math/rng.hpp"

namespace rge::oracles {
namespace {

using math::Rng;

// Simple 1-D constant state with noisy measurements.
ProcessModel constant_process(double q) {
  ProcessModel m;
  m.f = [](const Vec& x, const Vec&) { return x; };
  m.jacobian = [](const Vec& x, const Vec&) {
    return Mat::identity(x.size());
  };
  m.q = Mat{{q}};
  return m;
}

MeasurementModel direct_measurement(double r) {
  return linear_measurement(Mat{{1.0}}, Mat{{r}});
}

TEST(Ekf, ConstructionValidation) {
  EXPECT_THROW(ExtendedKalmanFilter(Vec{1.0, 2.0}, Mat::identity(3)),
               std::invalid_argument);
}

TEST(Ekf, ConvergesToConstantTruth) {
  ExtendedKalmanFilter f(Vec{0.0}, Mat{{100.0}});
  const auto proc = constant_process(1e-6);
  const auto meas = direct_measurement(0.25);
  Rng rng(17);
  const double truth = 3.7;
  for (int i = 0; i < 300; ++i) {
    f.predict(proc, Vec{});
    f.update(meas, Vec{truth + rng.gaussian(0.0, 0.5)});
  }
  EXPECT_NEAR(f.state()[0], truth, 0.1);
  EXPECT_LT(f.covariance()(0, 0), 0.05);
}

TEST(Ekf, CovarianceShrinksWithUpdates) {
  ExtendedKalmanFilter f(Vec{0.0}, Mat{{10.0}});
  const auto proc = constant_process(0.0);
  const auto meas = direct_measurement(1.0);
  double prev = f.covariance()(0, 0);
  for (int i = 0; i < 5; ++i) {
    f.predict(proc, Vec{});
    f.update(meas, Vec{0.0});
    const double cur = f.covariance()(0, 0);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
  // Information form: after n updates with R=1 and P0=10,
  // P = 1/(1/10 + n) approximately.
  EXPECT_NEAR(prev, 1.0 / (0.1 + 5.0), 1e-9);
}

TEST(Ekf, GateRejectsOutliers) {
  ExtendedKalmanFilter f(Vec{0.0}, Mat{{1.0}});
  const auto proc = constant_process(1e-4);
  const auto meas = direct_measurement(0.01);
  // Settle near zero.
  for (int i = 0; i < 50; ++i) {
    f.predict(proc, Vec{});
    f.update(meas, Vec{0.0});
  }
  const double before = f.state()[0];
  const auto res = f.update(meas, Vec{100.0}, /*gate_nis=*/9.0);
  EXPECT_FALSE(res.accepted);
  EXPECT_DOUBLE_EQ(f.state()[0], before);  // state untouched
  // Without gating the same measurement moves the state.
  const auto res2 = f.update(meas, Vec{100.0}, /*gate_nis=*/0.0);
  EXPECT_TRUE(res2.accepted);
  EXPECT_GT(f.state()[0], before);
}

TEST(Ekf, NisIsSensible) {
  ExtendedKalmanFilter f(Vec{0.0}, Mat{{1.0}});
  const auto meas = direct_measurement(1.0);
  const auto res = f.update(meas, Vec{2.0});
  // innovation 2, S = P + R = 2 -> NIS = 4/2 = 2.
  EXPECT_NEAR(res.nis, 2.0, 1e-12);
  EXPECT_NEAR(res.innovation[0], 2.0, 1e-12);
  EXPECT_NEAR(res.innovation_cov(0, 0), 2.0, 1e-12);
}

TEST(Ekf, TracksRampWithProcessNoise) {
  // State random-walk model tracking a slow ramp.
  ExtendedKalmanFilter f(Vec{0.0}, Mat{{1.0}});
  const auto proc = constant_process(0.05);
  const auto meas = direct_measurement(0.5);
  Rng rng(4);
  double truth = 0.0;
  for (int i = 0; i < 500; ++i) {
    truth += 0.01;
    f.predict(proc, Vec{});
    f.update(meas, Vec{truth + rng.gaussian(0.0, 0.7)});
  }
  EXPECT_NEAR(f.state()[0], truth, 0.5);
}

TEST(Ekf, TwoStateCoupling) {
  // x = [position, velocity]; only position measured; velocity becomes
  // observable through the coupling — the same mechanism the gradient EKF
  // relies on.
  const double dt = 0.1;
  ProcessModel proc;
  proc.f = [dt](const Vec& x, const Vec&) {
    return Vec{x[0] + x[1] * dt, x[1]};
  };
  proc.jacobian = [dt](const Vec&, const Vec&) {
    return Mat{{1.0, dt}, {0.0, 1.0}};
  };
  proc.q = Mat{{1e-6, 0.0}, {0.0, 1e-6}};
  const auto meas = linear_measurement(Mat{{1.0, 0.0}}, Mat{{0.01}});

  ExtendedKalmanFilter f(Vec{0.0, 0.0}, Mat::diag(Vec{1.0, 4.0}));
  Rng rng(9);
  const double v_true = 1.5;
  double pos = 0.0;
  for (int i = 0; i < 400; ++i) {
    pos += v_true * dt;
    f.predict(proc, Vec{});
    f.update(meas, Vec{pos + rng.gaussian(0.0, 0.1)});
  }
  EXPECT_NEAR(f.state()[1], v_true, 0.05);
}

TEST(Ekf, DimensionValidation) {
  ExtendedKalmanFilter f(Vec{0.0, 0.0}, Mat::identity(2));
  ProcessModel bad;
  bad.f = [](const Vec& x, const Vec&) { return x; };
  bad.jacobian = [](const Vec&, const Vec&) { return Mat::identity(3); };
  bad.q = Mat::identity(2);
  EXPECT_THROW(f.predict(bad, Vec{}), std::invalid_argument);

  MeasurementModel badm;
  badm.h = [](const Vec&) { return Vec{0.0}; };
  badm.jacobian = [](const Vec&) { return Mat{{1.0}}; };  // wrong cols
  badm.r = Mat{{1.0}};
  EXPECT_THROW(f.update(badm, Vec{0.0}), std::invalid_argument);
}

TEST(Ekf, CovarianceStaysSymmetric) {
  ExtendedKalmanFilter f(Vec{0.0, 0.0}, Mat::diag(Vec{5.0, 3.0}));
  ProcessModel proc;
  proc.f = [](const Vec& x, const Vec&) {
    return Vec{x[0] + 0.1 * x[1], x[1]};
  };
  proc.jacobian = [](const Vec&, const Vec&) {
    return Mat{{1.0, 0.1}, {0.0, 1.0}};
  };
  proc.q = Mat::diag(Vec{0.01, 0.01});
  const auto meas = linear_measurement(Mat{{1.0, 0.0}}, Mat{{0.5}});
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    f.predict(proc, Vec{});
    f.update(meas, Vec{rng.gaussian()});
    const Mat& p = f.covariance();
    EXPECT_DOUBLE_EQ(p(0, 1), p(1, 0));
    EXPECT_GT(p(0, 0), 0.0);
    EXPECT_GT(p(1, 1), 0.0);
  }
}

}  // namespace
}  // namespace rge::oracles

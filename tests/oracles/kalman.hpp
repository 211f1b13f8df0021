// Test oracle: generic Extended Kalman Filter (paper Section III-C2) over
// dynamic-size state, with std::function models, a Joseph-form covariance
// update and P symmetrized after every step. math::EkfN, core::GradeEkf and
// baselines::run_altitude_ekf reproduce it bit for bit (test_matn,
// test_grade_ekf, test_baselines).
#pragma once

#include <functional>

#include "oracles/matrix.hpp"

namespace rge::oracles {

/// Nonlinear process model x' = f(x, u) with Jacobian F = df/dx and process
/// noise covariance Q. The control u carries exogenous measured inputs
/// (e.g. the accelerometer sample in the gradient filter).
struct ProcessModel {
  std::function<Vec(const Vec& x, const Vec& u)> f;
  std::function<Mat(const Vec& x, const Vec& u)> jacobian;
  Mat q;  ///< process noise covariance (n x n)
};

/// Nonlinear measurement model z = h(x) with Jacobian H = dh/dx and
/// measurement noise covariance R.
struct MeasurementModel {
  std::function<Vec(const Vec& x)> h;
  std::function<Mat(const Vec& x)> jacobian;
  Mat r;  ///< measurement noise covariance (m x m)
};

/// Linear measurement z = H x with noise covariance R.
MeasurementModel linear_measurement(Mat h, Mat r);

/// Result of an update step, useful for gating and diagnostics.
struct UpdateResult {
  Vec innovation;            ///< z - h(x_pred)
  Mat innovation_cov;        ///< S = H P H^T + R
  double nis = 0.0;          ///< normalized innovation squared, y^T S^-1 y
  bool accepted = true;      ///< false when rejected by the gate
};

class ExtendedKalmanFilter {
 public:
  ExtendedKalmanFilter(Vec initial_state, Mat initial_cov);

  const Vec& state() const { return x_; }
  const Mat& covariance() const { return p_; }
  std::size_t dim() const { return x_.size(); }

  /// Propagate the state through the process model.
  void predict(const ProcessModel& model, const Vec& u);

  /// Correct with a measurement. If `gate_nis > 0`, measurements whose
  /// normalized innovation squared exceeds the gate are rejected (the state
  /// is left at the prediction) — this is how GPS glitches are survived.
  UpdateResult update(const MeasurementModel& model, const Vec& z,
                      double gate_nis = 0.0);

 private:
  Vec x_;
  Mat p_;
};

}  // namespace rge::oracles

#include "oracles/kalman.hpp"

#include <stdexcept>
#include <utility>

namespace rge::oracles {

MeasurementModel linear_measurement(Mat h, Mat r) {
  MeasurementModel m;
  m.h = [h](const Vec& x) { return h * x; };
  m.jacobian = [h](const Vec&) { return h; };
  m.r = std::move(r);
  return m;
}

ExtendedKalmanFilter::ExtendedKalmanFilter(Vec initial_state, Mat initial_cov)
    : x_(std::move(initial_state)), p_(std::move(initial_cov)) {
  if (p_.rows() != x_.size() || p_.cols() != x_.size()) {
    throw std::invalid_argument("EKF: covariance/state dimension mismatch");
  }
}

void ExtendedKalmanFilter::predict(const ProcessModel& model, const Vec& u) {
  const Mat f_jac = model.jacobian(x_, u);
  if (f_jac.rows() != dim() || f_jac.cols() != dim()) {
    throw std::invalid_argument("EKF::predict: Jacobian dimension mismatch");
  }
  if (model.q.rows() != dim() || model.q.cols() != dim()) {
    throw std::invalid_argument("EKF::predict: Q dimension mismatch");
  }
  x_ = model.f(x_, u);
  if (x_.size() != f_jac.rows()) {
    throw std::invalid_argument("EKF::predict: f changed state dimension");
  }
  p_ = f_jac * p_ * f_jac.transpose() + model.q;
  p_.symmetrize();
}

UpdateResult ExtendedKalmanFilter::update(const MeasurementModel& model,
                                          const Vec& z, double gate_nis) {
  const Mat h_jac = model.jacobian(x_);
  if (h_jac.cols() != dim()) {
    throw std::invalid_argument("EKF::update: Jacobian dimension mismatch");
  }
  const Vec predicted = model.h(x_);
  if (predicted.size() != z.size() || h_jac.rows() != z.size()) {
    throw std::invalid_argument("EKF::update: measurement dim mismatch");
  }

  UpdateResult res;
  res.innovation = z - predicted;
  res.innovation_cov = h_jac * p_ * h_jac.transpose() + model.r;
  const Mat s_inv = res.innovation_cov.inverse();
  res.nis = quadratic_form(s_inv, res.innovation);

  if (gate_nis > 0.0 && res.nis > gate_nis) {
    res.accepted = false;
    return res;
  }

  const Mat gain = p_ * h_jac.transpose() * s_inv;
  x_ += gain * res.innovation;

  // Joseph form: P = (I - K H) P (I - K H)^T + K R K^T, stable even with
  // suboptimal gain.
  const Mat ikh = Mat::identity(dim()) - gain * h_jac;
  p_ = ikh * p_ * ikh.transpose() +
       gain * model.r * gain.transpose();
  p_.symmetrize();
  return res;
}

}  // namespace rge::oracles

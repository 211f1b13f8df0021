#include "baselines/static_grade.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/interp.hpp"

namespace rge::baselines {

namespace {

double scalar_at(const std::vector<sensors::ScalarSample>& xs, double t) {
  return math::sample_linear(xs, &sensors::ScalarSample::t,
                             &sensors::ScalarSample::value, t);
}

}  // namespace

core::GradeTrack run_static_grade(const sensors::SensorTrace& trace,
                                  const vehicle::VehicleParams& params,
                                  const StaticGradeConfig& cfg) {
  if (trace.imu.empty()) {
    throw std::invalid_argument("run_static_grade: empty trace");
  }
  if (cfg.emit_rate_hz <= 0.0) {
    throw std::invalid_argument("run_static_grade: bad emit rate");
  }

  core::GradeTrack track;
  track.source = "baseline-static-eq3";

  const double dt = 1.0 / cfg.emit_rate_hz;
  const double t0 = trace.imu.front().t;
  const double t1 = trace.imu.back().t;
  double odometry = 0.0;

  std::size_t imu_lo = 0;
  for (double t = t0 + dt; t <= t1; t += dt) {
    // Mean forward specific force in [t - window, t + window].
    const double lo_t = t - cfg.accel_window_s;
    const double hi_t = t + cfg.accel_window_s;
    while (imu_lo < trace.imu.size() && trace.imu[imu_lo].t < lo_t) {
      ++imu_lo;
    }
    double f_acc = 0.0;
    std::size_t f_n = 0;
    for (std::size_t i = imu_lo;
         i < trace.imu.size() && trace.imu[i].t <= hi_t; ++i) {
      f_acc += trace.imu[i].accel_forward;
      ++f_n;
    }
    if (f_n == 0) continue;
    const double f_hat = f_acc / static_cast<double>(f_n);

    // Measured acceleration = finite difference of the speedometer.
    const double v_prev = scalar_at(trace.speedometer, t - dt);
    const double v_now = scalar_at(trace.speedometer, t);
    const double a_hat = (v_now - v_prev) / dt;

    const double arg =
        std::clamp((f_hat - a_hat) / params.gravity, -1.0, 1.0);
    const double theta = std::asin(arg);

    odometry += 0.5 * (v_prev + v_now) * dt;
    track.t.push_back(t);
    track.grade.push_back(theta);
    // No filter, no covariance: report the single-shot error variance
    // implied by differentiating the speedometer noise.
    track.grade_var.push_back(0.02);
    track.speed.push_back(v_now);
    track.s.push_back(odometry);
  }
  return track;
}

}  // namespace rge::baselines

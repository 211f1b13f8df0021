#include "baselines/torque_grade.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/interp.hpp"
#include "vehicle/dynamics.hpp"

namespace rge::baselines {

namespace {

double scalar_at(const std::vector<sensors::ScalarSample>& xs, double t) {
  return math::sample_linear(xs, &sensors::ScalarSample::t,
                             &sensors::ScalarSample::value, t);
}

/// Gear is piecewise constant: take the latest broadcast at or before t.
int gear_at(const std::vector<sensors::ScalarSample>& xs, double t) {
  if (xs.empty()) return 1;
  const auto it = std::upper_bound(
      xs.begin(), xs.end(), t,
      [](double q, const sensors::ScalarSample& s) { return q < s.t; });
  if (it == xs.begin()) return static_cast<int>(xs.front().value);
  return static_cast<int>((it - 1)->value);
}

}  // namespace

core::GradeTrack run_torque_grade(const sensors::SensorTrace& trace,
                                  const vehicle::VehicleParams& params,
                                  const TorqueGradeConfig& cfg) {
  if (trace.engine_torque.empty() || trace.active_gear.empty()) {
    throw std::invalid_argument(
        "run_torque_grade: trace has no premium CAN streams");
  }
  if (trace.canbus_speed.empty()) {
    throw std::invalid_argument("run_torque_grade: trace has no CAN speed");
  }
  if (cfg.emit_rate_hz <= 0.0) {
    throw std::invalid_argument("run_torque_grade: bad emit rate");
  }

  const vehicle::Powertrain powertrain(params, cfg.powertrain);

  core::GradeTrack track;
  track.source = "baseline-torque-eq3";

  const double dt = 1.0 / cfg.emit_rate_hz;
  const double t0 = trace.engine_torque.front().t;
  const double t1 = trace.engine_torque.back().t;

  std::vector<double> raw_t;
  std::vector<double> raw_theta;
  std::vector<double> raw_v;
  for (double t = t0 + dt; t <= t1; t += dt) {
    const double v_prev = scalar_at(trace.canbus_speed, t - dt);
    const double v_now = scalar_at(trace.canbus_speed, t);
    if (v_now < 1.0) continue;  // torque signal unreliable at crawl
    const double a_hat = (v_now - v_prev) / dt;
    const double engine_nm = scalar_at(trace.engine_torque, t);
    const int gear = std::clamp(
        gear_at(trace.active_gear, t), 1,
        static_cast<int>(cfg.powertrain.gear_ratios.size()));
    const double wheel_nm = powertrain.wheel_torque(engine_nm, gear);
    raw_t.push_back(t);
    raw_theta.push_back(
        vehicle::grade_from_states(params, wheel_nm, v_now, a_hat));
    raw_v.push_back(v_now);
  }

  // Smooth the per-sample estimates (the papers use multiple runs /
  // filtering; a moving average is the minimal equivalent).
  const auto smoothed =
      math::moving_average(raw_theta, cfg.smooth_half_window);

  double odometry = 0.0;
  for (std::size_t i = 0; i < raw_t.size(); ++i) {
    if (i > 0) odometry += raw_v[i] * (raw_t[i] - raw_t[i - 1]);
    track.t.push_back(raw_t[i]);
    track.grade.push_back(smoothed[i]);
    track.grade_var.push_back(4e-4);  // single-run method, fixed confidence
    track.speed.push_back(raw_v[i]);
    track.s.push_back(odometry);
  }
  return track;
}

}  // namespace rge::baselines

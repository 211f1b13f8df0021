// Tests for the altitude-EKF and ANN baselines, including the paper's
// method ordering (OPS < EKF < ANN error).
#include "baselines/ann_grade.hpp"
#include "baselines/ekf_altitude.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "math/angles.hpp"
#include "oracles/kalman.hpp"
#include "road/network.hpp"
#include "sensors/smartphone.hpp"
#include "vehicle/trip.hpp"

namespace rge::baselines {
namespace {

using math::deg2rad;

struct Scenario {
  road::Road road;
  vehicle::Trip trip;
  sensors::SensorTrace trace;
};

Scenario make_scenario(const road::Road& road, std::uint64_t seed) {
  Scenario sc{road, {}, {}};
  vehicle::TripConfig tc;
  tc.seed = seed;
  tc.lane_changes_per_km = 4.0;
  sc.trip = vehicle::simulate_trip(sc.road, tc);
  sensors::SmartphoneConfig pc;
  pc.seed = seed + 11;
  sc.trace = sensors::simulate_sensors(sc.trip, sc.road.anchor(),
                                       vehicle::VehicleParams{}, pc);
  return sc;
}

std::vector<AnnSample> samples_from(const Scenario& sc, double rate_hz) {
  std::vector<double> ts;
  std::vector<double> gs;
  for (const auto& st : sc.trip.states) {
    ts.push_back(st.t);
    gs.push_back(st.grade);
  }
  return make_training_samples(sc.trace, ts, gs, rate_hz);
}

TEST(AltitudeEkf, EmptyTraceThrows) {
  EXPECT_THROW(
      run_altitude_ekf(sensors::SensorTrace{}, vehicle::VehicleParams{}),
      std::invalid_argument);
}

/// run_altitude_ekf's [z, v, theta] model driven through the dynamic
/// std::function EKF oracle, recording the same samples.
core::GradeTrack altitude_ekf_oracle(const sensors::SensorTrace& trace,
                                     const vehicle::VehicleParams& params,
                                     const AltitudeEkfConfig& cfg) {
  using oracles::Mat;
  using oracles::Vec;
  const double z0 =
      trace.barometer_alt.empty() ? 0.0 : trace.barometer_alt.front().value;
  const double v0 =
      trace.speedometer.empty() ? 0.0 : trace.speedometer.front().value;
  oracles::ExtendedKalmanFilter ekf(
      Vec{z0, v0, 0.0}, Mat::diag(Vec{cfg.initial_alt_var,
                                      cfg.initial_speed_var,
                                      cfg.initial_grade_var}));
  const auto baro_model = oracles::linear_measurement(
      Mat{{1.0, 0.0, 0.0}}, Mat{{cfg.baro_variance}});
  const auto vel_model = oracles::linear_measurement(
      Mat{{0.0, 1.0, 0.0}}, Mat{{cfg.velocity_variance}});

  core::GradeTrack track;
  std::size_t baro_idx = 0;
  std::size_t spd_idx = 0;
  double odometry = 0.0;
  const std::size_t decim = std::max<std::size_t>(1, cfg.record_decimation);
  const double g = params.gravity;
  double prev_t = trace.imu.front().t;
  for (std::size_t i = 0; i < trace.imu.size(); ++i) {
    const auto& s = trace.imu[i];
    const double dt = std::max(0.0, s.t - prev_t);
    prev_t = s.t;
    if (dt > 0.0) {
      oracles::ProcessModel model;
      const double a_hat = s.accel_forward;
      model.f = [dt, a_hat, g](const Vec& x, const Vec&) {
        return Vec{x[0] + x[1] * std::sin(x[2]) * dt,
                   std::max(0.0, x[1] + (a_hat - g * std::sin(x[2])) * dt),
                   x[2]};
      };
      model.jacobian = [dt, g](const Vec& x, const Vec&) {
        Mat f_jac = Mat::identity(3);
        f_jac(0, 1) = std::sin(x[2]) * dt;
        f_jac(0, 2) = x[1] * std::cos(x[2]) * dt;
        f_jac(1, 2) = -g * std::cos(x[2]) * dt;
        return f_jac;
      };
      model.q = Mat::diag(
          Vec{cfg.altitude_process_sigma * cfg.altitude_process_sigma * dt,
              cfg.accel_sigma * cfg.accel_sigma * dt * dt,
              cfg.grade_process_psd * dt});
      ekf.predict(model, Vec{});
      odometry += ekf.state()[1] * dt;
    }
    while (baro_idx < trace.barometer_alt.size() &&
           trace.barometer_alt[baro_idx].t <= s.t) {
      ekf.update(baro_model, Vec{trace.barometer_alt[baro_idx].value});
      ++baro_idx;
    }
    while (spd_idx < trace.speedometer.size() &&
           trace.speedometer[spd_idx].t <= s.t) {
      ekf.update(vel_model, Vec{trace.speedometer[spd_idx].value});
      ++spd_idx;
    }
    if (i % decim == 0) {
      track.t.push_back(s.t);
      track.grade.push_back(ekf.state()[2]);
      track.grade_var.push_back(ekf.covariance()(2, 2));
      track.speed.push_back(ekf.state()[1]);
      track.s.push_back(odometry);
    }
  }
  return track;
}

TEST(AltitudeEkf, MatchesGenericEkfBitExact) {
  const Scenario sc = make_scenario(road::make_table3_route(2019), 7);
  const vehicle::VehicleParams params;
  const AltitudeEkfConfig cfg;
  const auto fixed = run_altitude_ekf(sc.trace, params, cfg);
  const auto oracle = altitude_ekf_oracle(sc.trace, params, cfg);
  ASSERT_GT(fixed.size(), 1000u);
  EXPECT_EQ(fixed.t, oracle.t);
  EXPECT_EQ(fixed.grade, oracle.grade);
  EXPECT_EQ(fixed.grade_var, oracle.grade_var);
  EXPECT_EQ(fixed.speed, oracle.speed);
  EXPECT_EQ(fixed.s, oracle.s);
}

TEST(AltitudeEkf, RecoversGradeShape) {
  const Scenario sc = make_scenario(road::make_table3_route(2019), 5);
  const auto track = run_altitude_ekf(sc.trace, vehicle::VehicleParams{});
  ASSERT_FALSE(track.t.empty());
  const auto stats = core::evaluate_track(track, sc.trip);
  // Not great (barometer-limited) but clearly informative.
  EXPECT_LT(stats.median_abs_deg, 1.2);
  EXPECT_LT(stats.mre, 0.5);
}

TEST(AltitudeEkf, TracksAltitudeRoughly) {
  const Scenario sc = make_scenario(road::make_table3_route(2019), 6);
  const auto track = run_altitude_ekf(sc.trace, vehicle::VehicleParams{});
  // Speed estimate should be close to the truth throughout.
  std::size_t si = 0;
  double err_acc = 0.0;
  for (std::size_t i = 0; i < track.t.size(); ++i) {
    while (si + 1 < sc.trip.states.size() &&
           sc.trip.states[si].t < track.t[i]) {
      ++si;
    }
    err_acc += std::abs(track.speed[i] - sc.trip.states[si].speed);
  }
  EXPECT_LT(err_acc / static_cast<double>(track.t.size()), 0.5);
}

TEST(AnnGrade, TrainValidation) {
  AnnGradeEstimator ann;
  EXPECT_THROW(ann.train({}), std::invalid_argument);
  EXPECT_THROW((void)ann.predict(1.0, 0.0, 100.0), std::logic_error);
  EXPECT_THROW((void)ann.run(sensors::SensorTrace{}), std::logic_error);
}

TEST(AnnGrade, LearnsFromLabelledDrive) {
  const Scenario sc = make_scenario(road::make_table3_route(2019), 7);
  const auto samples = samples_from(sc, 21.0);
  ASSERT_GE(samples.size(), 1000u);
  AnnGradeEstimator ann;
  const double mse = ann.train(samples);
  EXPECT_TRUE(ann.trained());
  EXPECT_LT(mse, 1.0);  // normalized label space
  // Evaluate on a different drive over the same route.
  const Scenario eval = make_scenario(road::make_table3_route(2019), 8);
  const auto track = ann.run(eval.trace);
  const auto stats = core::evaluate_track(track, eval.trip);
  EXPECT_LT(stats.mre, 0.8);
}

TEST(AnnGrade, RespectsSampleCap) {
  const Scenario sc = make_scenario(road::make_table3_route(2019), 9);
  auto samples = samples_from(sc, 50.0);
  ASSERT_GT(samples.size(), 4320u);
  AnnGradeConfig cfg;
  cfg.epochs = 5;
  AnnGradeEstimator ann(cfg);
  ann.train(samples);  // must not throw; extra samples ignored
  EXPECT_TRUE(ann.trained());
}

TEST(AnnGrade, MakeTrainingSamplesValidation) {
  const Scenario sc = make_scenario(road::make_table3_route(2019), 10);
  EXPECT_THROW(make_training_samples(sc.trace, std::vector<double>{},
                                     std::vector<double>{}, 2.0),
               std::invalid_argument);
  EXPECT_THROW(make_training_samples(sc.trace, std::vector<double>{1.0},
                                     std::vector<double>{1.0, 2.0}, 2.0),
               std::invalid_argument);
}

TEST(MethodOrdering, OpsBeatsEkfBeatsAnn) {
  // The paper's headline comparison (Fig. 8/9): OPS < EKF < ANN error.
  const road::Road route = road::make_table3_route(2019);

  // Train the ANN on an independent drive, as the paper does (4,320
  // labelled samples).
  const Scenario train = make_scenario(route, 99);
  AnnGradeEstimator ann;
  ann.train(samples_from(train, 21.0));

  double ops_acc = 0.0;
  double ekf_acc = 0.0;
  double ann_acc = 0.0;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const Scenario sc = make_scenario(route, seed);
    const auto ops =
        core::estimate_gradient(sc.trace, vehicle::VehicleParams{});
    ops_acc += core::evaluate_track(ops.fused, sc.trip).mre;
    const auto ekf = run_altitude_ekf(sc.trace, vehicle::VehicleParams{});
    ekf_acc += core::evaluate_track(ekf, sc.trip).mre;
    const auto ann_track = ann.run(sc.trace);
    ann_acc += core::evaluate_track(ann_track, sc.trip).mre;
  }
  EXPECT_LT(ops_acc, ekf_acc);
  EXPECT_LT(ekf_acc, ann_acc);
}

}  // namespace
}  // namespace rge::baselines

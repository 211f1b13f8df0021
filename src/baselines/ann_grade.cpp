#include "baselines/ann_grade.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/interp.hpp"
#include "math/stats.hpp"

namespace rge::baselines {

namespace {

double sample_scalar(const std::vector<sensors::ScalarSample>& xs, double t) {
  return math::sample_linear(xs, &sensors::ScalarSample::t,
                             &sensors::ScalarSample::value, t);
}

/// Smoothed forward-accelerometer series (0.5 s moving average) on the IMU
/// timeline.
void smoothed_accel(const sensors::SensorTrace& trace,
                    std::vector<double>& t_out, std::vector<double>& a_out) {
  t_out.clear();
  a_out.clear();
  t_out.reserve(trace.imu.size());
  a_out.reserve(trace.imu.size());
  std::vector<double> raw;
  raw.reserve(trace.imu.size());
  for (const auto& s : trace.imu) {
    t_out.push_back(s.t);
    raw.push_back(s.accel_forward);
  }
  const auto half = static_cast<std::size_t>(
      std::max(1.0, 0.25 * std::max(1.0, trace.imu_rate_hz)));
  a_out = math::moving_average(raw, half);
}

Mlp make_mlp(const AnnGradeConfig& cfg) {
  MlpConfig mc;
  mc.layers.push_back(3);
  for (std::size_t h : cfg.hidden) mc.layers.push_back(h);
  mc.layers.push_back(1);
  mc.learning_rate = cfg.learning_rate;
  mc.batch_size = cfg.batch_size;
  mc.seed = cfg.seed;
  return Mlp(mc);
}

}  // namespace

AnnGradeEstimator::AnnGradeEstimator(AnnGradeConfig cfg)
    : cfg_(std::move(cfg)), mlp_(make_mlp(cfg_)) {}

double AnnGradeEstimator::train(const std::vector<AnnSample>& samples) {
  if (samples.size() < 8) {
    throw std::invalid_argument("AnnGradeEstimator::train: too few samples");
  }
  const std::size_t n = std::min(samples.size(), cfg_.max_training_samples);

  // Fit normalization.
  double fsum[3] = {0, 0, 0};
  double fsq[3] = {0, 0, 0};
  double lsum = 0.0;
  double lsq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double feats[3] = {samples[i].velocity, samples[i].accel,
                             samples[i].altitude};
    for (int k = 0; k < 3; ++k) {
      fsum[k] += feats[k];
      fsq[k] += feats[k] * feats[k];
    }
    lsum += samples[i].grade;
    lsq += samples[i].grade * samples[i].grade;
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  for (int k = 0; k < 3; ++k) {
    feat_mean_[k] = fsum[k] * inv_n;
    const double var = std::max(1e-12, fsq[k] * inv_n -
                                           feat_mean_[k] * feat_mean_[k]);
    feat_std_[k] = std::sqrt(var);
  }
  label_mean_ = lsum * inv_n;
  label_std_ = std::sqrt(
      std::max(1e-12, lsq * inv_n - label_mean_ * label_mean_));

  // Flatten normalized dataset.
  std::vector<double> inputs;
  std::vector<double> targets;
  inputs.reserve(n * 3);
  targets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double feats[3] = {samples[i].velocity, samples[i].accel,
                             samples[i].altitude};
    for (int k = 0; k < 3; ++k) {
      inputs.push_back((feats[k] - feat_mean_[k]) / feat_std_[k]);
    }
    targets.push_back((samples[i].grade - label_mean_) / label_std_);
  }

  const double mse = mlp_.fit(inputs, targets, n, cfg_.epochs);
  residual_var_ = std::max(1e-8, mse * label_std_ * label_std_);
  trained_ = true;
  return mse;
}

double AnnGradeEstimator::predict(double velocity, double accel,
                                  double altitude) const {
  if (!trained_) {
    throw std::logic_error("AnnGradeEstimator::predict before train");
  }
  const double x[3] = {(velocity - feat_mean_[0]) / feat_std_[0],
                       (accel - feat_mean_[1]) / feat_std_[1],
                       (altitude - feat_mean_[2]) / feat_std_[2]};
  const auto out = mlp_.predict(std::span<const double>(x, 3));
  return out[0] * label_std_ + label_mean_;
}

core::GradeTrack AnnGradeEstimator::run(
    const sensors::SensorTrace& trace) const {
  if (!trained_) {
    throw std::logic_error("AnnGradeEstimator::run before train");
  }
  core::GradeTrack track;
  track.source = "baseline-ann";
  if (trace.imu.empty()) return track;

  std::vector<double> acc_t;
  std::vector<double> acc_v;
  smoothed_accel(trace, acc_t, acc_v);

  const double t0 = trace.imu.front().t;
  const double t1 = trace.imu.back().t;
  const double dt = 1.0 / std::max(0.1, cfg_.emit_rate_hz);
  double odometry = 0.0;
  double prev_t = t0;
  for (double t = t0; t <= t1; t += dt) {
    const double v = sample_scalar(trace.speedometer, t);
    const double a = math::sample_linear(acc_t, acc_v, t);
    const double alt = sample_scalar(trace.barometer_alt, t);
    const double g = predict(v, a, alt);
    odometry += v * (t - prev_t);
    prev_t = t;
    track.t.push_back(t);
    track.grade.push_back(g);
    track.grade_var.push_back(residual_var_);
    track.speed.push_back(v);
    track.s.push_back(odometry);
  }
  return track;
}

std::vector<AnnSample> make_training_samples(
    const sensors::SensorTrace& trace, std::span<const double> t_truth,
    std::span<const double> grade_truth, double rate_hz) {
  if (t_truth.size() != grade_truth.size() || t_truth.empty()) {
    throw std::invalid_argument("make_training_samples: bad truth series");
  }
  std::vector<AnnSample> out;
  if (trace.imu.empty()) return out;

  std::vector<double> acc_t;
  std::vector<double> acc_v;
  smoothed_accel(trace, acc_t, acc_v);

  const double t0 = trace.imu.front().t;
  const double t1 = trace.imu.back().t;
  const double dt = 1.0 / std::max(0.01, rate_hz);
  for (double t = t0; t <= t1; t += dt) {
    AnnSample s;
    s.velocity = sample_scalar(trace.speedometer, t);
    s.accel = math::sample_linear(acc_t, acc_v, t);
    s.altitude = sample_scalar(trace.barometer_alt, t);
    s.grade = math::sample_linear(t_truth, grade_truth, t);
    out.push_back(s);
  }
  return out;
}

}  // namespace rge::baselines

#include "core/online_estimator_batch.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"

namespace rge::core {

OnlineEstimatorBatch::OnlineEstimatorBatch(std::size_t lanes,
                                           const vehicle::VehicleParams& params,
                                           const OnlineEstimatorConfig& config)
    : lanes_(lanes),
      gps_batch_(lanes, params, config.ekf),
      speedometer_batch_(lanes, params, config.ekf),
      canbus_batch_(lanes, params, config.ekf),
      steps_(lanes),
      f_(lanes, 0.0),
      dt_(lanes, 0.0) {
  lanes_state_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_state_.push_back(
        std::make_unique<OnlineGradientEstimator>(params, config));
    lanes_state_.back()->attach_batch(&gps_batch_, &speedometer_batch_,
                                      &canbus_batch_, i);
  }
}

void OnlineEstimatorBatch::push_imu(
    std::span<const sensors::ImuSample> samples) {
  if (samples.size() < lanes_) {
    throw std::invalid_argument(
        "OnlineEstimatorBatch::push_imu: sample span short");
  }
  push_imu(samples, std::span<const std::uint8_t>{});
}

void OnlineEstimatorBatch::push_imu(std::span<const sensors::ImuSample> samples,
                                    std::span<const std::uint8_t> active) {
  if (samples.size() < lanes_) {
    throw std::invalid_argument(
        "OnlineEstimatorBatch::push_imu: sample span short");
  }
  if (!active.empty() && active.size() < lanes_) {
    throw std::invalid_argument(
        "OnlineEstimatorBatch::push_imu: active mask short");
  }
  // Stage 1: causal front half per lane; gather the predict inputs. A
  // lane predicts only when its sample was admitted and advanced time
  // (dt > 0) — exactly the scalar push_imu's guard; which of its source
  // filters are seeded is GradeEkfBatch's own lane mask.
  for (std::size_t i = 0; i < lanes_; ++i) {
    if (!active.empty() && active[i] == 0) {
      steps_[i].accepted = false;
      f_[i] = 0.0;
      dt_[i] = 0.0;
      continue;
    }
    steps_[i] = lanes_state_[i]->push_imu_begin(samples[i]);
    const bool advance = steps_[i].accepted && steps_[i].dt > 0.0;
    f_[i] = advance ? steps_[i].f : 0.0;
    dt_[i] = advance ? steps_[i].dt : 0.0;
  }
  // Stage 2: one lane-parallel predict per source, in the scalar loop's
  // source order (the sources' states are independent, but keeping the
  // order makes the equivalence argument a pure code-motion one).
  gps_batch_.predict(f_, dt_);
  speedometer_batch_.predict(f_, dt_);
  canbus_batch_.predict(f_, dt_);
  // Stage 3: post-predict back half per lane.
  for (std::size_t i = 0; i < lanes_; ++i) {
    if (steps_[i].accepted) lanes_state_[i]->push_imu_finish(steps_[i]);
  }
}

void OnlineEstimatorBatch::push_gps(std::size_t lane,
                                    const sensors::GpsFix& fix) {
  lanes_state_.at(lane)->push_gps(fix);
}

void OnlineEstimatorBatch::push_speedometer(std::size_t lane, double t,
                                            double speed_mps) {
  lanes_state_.at(lane)->push_speedometer(t, speed_mps);
}

void OnlineEstimatorBatch::push_canbus(std::size_t lane, double t,
                                       double speed_mps) {
  lanes_state_.at(lane)->push_canbus(t, speed_mps);
}

void OnlineEstimatorBatch::push_baro(std::size_t lane, double t,
                                     double altitude_m) {
  lanes_state_.at(lane)->push_baro(t, altitude_m);
}

OnlineEstimate OnlineEstimatorBatch::estimate(std::size_t lane) const {
  return lanes_state_.at(lane)->estimate();
}

const std::vector<DetectedLaneChange>& OnlineEstimatorBatch::lane_changes(
    std::size_t lane) const {
  return lanes_state_.at(lane)->lane_changes();
}

SourceDiagnostics OnlineEstimatorBatch::source_diagnostics(
    std::size_t lane, VelocitySource which) const {
  return lanes_state_.at(lane)->source_diagnostics(which);
}

double OnlineEstimatorBatch::accel_bias_estimate(std::size_t lane) const {
  return lanes_state_.at(lane)->accel_bias_estimate();
}

namespace {

constexpr std::size_t kDefaultLanesPerBlock = 64;

/// Per-lane read cursors into one trace's streams.
struct LaneCursor {
  std::size_t imu = 0;
  std::size_t gps = 0;
  std::size_t speedo = 0;
  std::size_t canbus = 0;
  std::size_t baro = 0;
};

}  // namespace

std::vector<OnlineFleetResult> run_online_batch(
    const std::vector<sensors::SensorTrace>& traces,
    const vehicle::VehicleParams& params, const OnlineEstimatorConfig& config,
    std::size_t n_threads, std::size_t lanes_per_block) {
  std::vector<OnlineFleetResult> results(traces.size());
  if (traces.empty()) return results;
  const std::size_t block =
      lanes_per_block == 0 ? kDefaultLanesPerBlock : lanes_per_block;
  const std::size_t n_blocks = (traces.size() + block - 1) / block;

  runtime::ThreadPool pool(n_threads);
  runtime::parallel_for(pool, n_blocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(traces.size(), lo + block);
    const std::size_t lanes = hi - lo;
    OBS_SPAN("online_batch.block");
    OnlineEstimatorBatch batch(lanes, params, config);
    std::vector<LaneCursor> cur(lanes);
    std::vector<sensors::ImuSample> samples(lanes);
    std::vector<std::uint8_t> active(lanes, 1);

    // Lockstep sweep: round k delivers each live lane its k-th IMU sample,
    // preceded by that lane's measurements up to the sample's timestamp
    // (the dispatcher order documented on run_online_batch). Lanes whose
    // trace ran out go inactive; their state freezes.
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t l = 0; l < lanes; ++l) {
        const sensors::SensorTrace& tr = traces[lo + l];
        LaneCursor& c = cur[l];
        if (c.imu >= tr.imu.size()) {
          active[l] = 0;
          continue;
        }
        any = true;
        active[l] = 1;
        const sensors::ImuSample& imu = tr.imu[c.imu++];
        while (c.gps < tr.gps.size() && tr.gps[c.gps].t <= imu.t) {
          batch.push_gps(l, tr.gps[c.gps++]);
        }
        while (c.speedo < tr.speedometer.size() &&
               tr.speedometer[c.speedo].t <= imu.t) {
          batch.push_speedometer(l, tr.speedometer[c.speedo].t,
                                 tr.speedometer[c.speedo].value);
          ++c.speedo;
        }
        while (c.canbus < tr.canbus_speed.size() &&
               tr.canbus_speed[c.canbus].t <= imu.t) {
          batch.push_canbus(l, tr.canbus_speed[c.canbus].t,
                            tr.canbus_speed[c.canbus].value);
          ++c.canbus;
        }
        while (c.baro < tr.barometer_alt.size() &&
               tr.barometer_alt[c.baro].t <= imu.t) {
          batch.push_baro(l, tr.barometer_alt[c.baro].t,
                          tr.barometer_alt[c.baro].value);
          ++c.baro;
        }
        samples[l] = imu;
      }
      if (!any) break;
      batch.push_imu(samples, active);
    }

    for (std::size_t l = 0; l < lanes; ++l) {
      results[lo + l].final_estimate = batch.estimate(l);
      results[lo + l].lane_changes = batch.lane_changes(l);
    }
  });
  return results;
}

}  // namespace rge::core

// Fleet-scale SoA batch of online gradient estimators.
//
// OnlineEstimatorBatch runs N vehicles' streaming estimators in lockstep.
// Each lane keeps the full scalar OnlineGradientEstimator state (alignment,
// lane-change detection, the defense layer's gating/quarantine machinery —
// all inherently per-vehicle and branchy), but the three per-source
// velocity EKFs are re-homed into shared structure-of-arrays batches
// (GradeEkfBatch), so the IMU-rate predict step — the fleet hot loop, two
// orders of magnitude more frequent than any measurement — runs as three
// lane-parallel vector sweeps instead of 3*N scattered virtual little
// matrix products.
//
// Per IMU step the driver runs the exact stage order of the scalar
// push_imu, hoisted across lanes:
//   1. push_imu_begin on every lane: admission, causal alignment, the
//      lane-change force projection — produces (f, dt) per lane;
//   2. one GradeEkfBatch::predict per source (gps, speedometer, canbus —
//      the scalar loop's order) over all lanes;
//   3. push_imu_finish on every lane: odometry, baro integrals, detection
//      buffer, maneuver confirmation.
// Measurement pushes (GPS/speedometer/CAN/baro) stay scalar per lane and
// route through the same defense layer (admit_velocity) as the scalar
// estimator; the EKF update arithmetic is the shared kernel in both.
//
// Parity contract (DESIGN.md §8): with RGE_SIMD=OFF every lane is
// bit-identical to an independent OnlineGradientEstimator fed the same
// stream; with RGE_SIMD=ON only the predict step carries the pinned
// kernel tolerance. In both modes lanes are fully independent, so outputs
// are invariant under lane permutation bit-for-bit.
//
// Hot-path contract: after warm-up, push_imu performs zero heap
// allocations (pinned by test_online_estimator_batch).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/grade_ekf_batch.hpp"
#include "core/online_estimator.hpp"
#include "sensors/trace.hpp"
#include "vehicle/params.hpp"

namespace rge::core {

class OnlineEstimatorBatch {
 public:
  /// All lanes share one VehicleParams and OnlineEstimatorConfig (a fleet
  /// of identical vehicles; heterogeneous fleets shard across batches).
  OnlineEstimatorBatch(std::size_t lanes,
                       const vehicle::VehicleParams& params,
                       const OnlineEstimatorConfig& config = {});

  std::size_t lanes() const { return lanes_; }

  /// Lockstep IMU step: samples[i] feeds lane i. Spans must cover
  /// lanes(). The overload with `active` skips lanes whose mask byte is 0
  /// entirely (their streams are not advanced) — used by fleet drivers
  /// whose vehicles have traces of different lengths.
  void push_imu(std::span<const sensors::ImuSample> samples);
  void push_imu(std::span<const sensors::ImuSample> samples,
                std::span<const std::uint8_t> active);

  /// Per-lane measurement pushes (low-rate; scalar defense-layer path,
  /// identical to OnlineGradientEstimator's).
  void push_gps(std::size_t lane, const sensors::GpsFix& fix);
  void push_speedometer(std::size_t lane, double t, double speed_mps);
  void push_canbus(std::size_t lane, double t, double speed_mps);
  void push_baro(std::size_t lane, double t, double altitude_m);

  OnlineEstimate estimate(std::size_t lane) const;
  const std::vector<DetectedLaneChange>& lane_changes(std::size_t lane) const;
  SourceDiagnostics source_diagnostics(std::size_t lane,
                                       VelocitySource which) const;
  double accel_bias_estimate(std::size_t lane) const;

 private:
  std::size_t lanes_ = 0;
  GradeEkfBatch gps_batch_;
  GradeEkfBatch speedometer_batch_;
  GradeEkfBatch canbus_batch_;
  // Per-lane scalar state. unique_ptr because OnlineGradientEstimator is
  // not movable (the attach_batch wiring also must never see its lanes
  // relocate); construction-time only, the hot path never touches the
  // allocator.
  std::vector<std::unique_ptr<OnlineGradientEstimator>> lanes_state_;
  // Lockstep scratch, sized at construction (zero-alloc steady state).
  std::vector<OnlineGradientEstimator::ImuStep> steps_;
  std::vector<double> f_;
  std::vector<double> dt_;
};

/// Result of streaming one vehicle's full trace through the fleet driver.
struct OnlineFleetResult {
  OnlineEstimate final_estimate;
  std::vector<DetectedLaneChange> lane_changes;
};

/// Fleet driver: streams every trace through SoA batch estimators,
/// lanes_per_block vehicles per OnlineEstimatorBatch, blocks distributed
/// over a runtime::ThreadPool. Each lane merges its trace's streams in
/// timestamp order (all GPS fixes with t <= imu.t, then speedometer, then
/// CAN, then barometer, then the IMU sample — the order the app's
/// dispatcher would deliver them); lanes beyond a trace's end go inactive,
/// so traces of different lengths batch fine. Lanes are independent, so
/// results are identical for any n_threads and any lanes_per_block
/// grouping. n_threads == 0 picks hardware concurrency; lanes_per_block
/// == 0 picks the default block size. Each block's lockstep sweep records
/// an online_batch.block span.
std::vector<OnlineFleetResult> run_online_batch(
    const std::vector<sensors::SensorTrace>& traces,
    const vehicle::VehicleParams& params,
    const OnlineEstimatorConfig& config = {}, std::size_t n_threads = 0,
    std::size_t lanes_per_block = 0);

}  // namespace rge::core

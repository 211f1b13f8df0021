// Shared scenario builders and printing helpers for the experiment
// harnesses. Each bench binary reproduces one table or figure of the paper;
// this header centralizes the "drive a road with a phone" plumbing so the
// binaries read like experiment scripts.
#pragma once

#include <string>
#include <vector>

#include "baselines/ann_grade.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "road/network.hpp"
#include "sensors/smartphone.hpp"
#include "vehicle/trip.hpp"

namespace rge::bench {

/// One simulated drive: road + ground truth trip + recorded sensor trace.
struct Drive {
  road::Road road;
  vehicle::Trip trip;
  sensors::SensorTrace trace;
};

struct DriveOptions {
  std::uint64_t trip_seed = 21;
  std::uint64_t phone_seed = 121;
  double lane_changes_per_km = 4.0;
  double cruise_speed_mps = 11.1;  // ~40 km/h, the paper's city average
  int random_gps_outages = 0;
  double stops_per_km = 0.0;
};

/// Drive `road` once with a phone in the default vehicle.
Drive simulate_drive(road::Road road, const DriveOptions& opts = {});

/// The paper's evaluation vehicle.
vehicle::VehicleParams default_vehicle();

/// Train the ANN baseline the way the paper does: an independent labelled
/// drive over the given road, capped at 4,320 samples.
baselines::AnnGradeEstimator train_ann_on(const road::Road& road,
                                          std::uint64_t seed = 990);

/// Per-method evaluation result used by the comparison benches.
struct MethodResult {
  std::string name;
  core::TrackErrorStats stats;
};

/// Run OPS / altitude-EKF / ANN over one drive and evaluate each against
/// the drive's ground truth.
std::vector<MethodResult> compare_methods(
    const Drive& drive, baselines::AnnGradeEstimator& trained_ann,
    const core::PipelineConfig& ops_cfg = {});

/// Same comparison, but with the OPS pipeline result already computed
/// (e.g. by run_pipeline_batch over the whole drive set) so only the two
/// baselines run here.
std::vector<MethodResult> compare_methods(
    const Drive& drive, baselines::AnnGradeEstimator& trained_ann,
    const core::PipelineResult& precomputed_ops);

// ------------------------------ printing ------------------------------

/// Print a section header in a consistent style.
void print_header(const std::string& title, const std::string& paper_ref);

/// Print a CDF as rows of (abs error deg, cumulative probability),
/// sampled at fixed error grid points.
void print_cdf(const std::string& label, const std::vector<double>& samples,
               double max_err_deg = 1.0, std::size_t points = 11);

/// One-line per-stage report read from the obs span totals (see
/// obs::span_totals(); needs obs::set_tracing(true) beforehand), e.g.
/// "trips=12 | align 1.2 ms | detect 3.4 ms | ekf 250.0 ms | fuse 8.9 ms".
/// Times sum over threads; match/accumulate appear only when recorded.
std::string stage_summary();

/// Median of a sample set (convenience).
double median_of(const std::vector<double>& xs);

}  // namespace rge::bench

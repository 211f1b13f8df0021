// Cloud fusion example (paper Section III-C3, last paragraph): several
// vehicles drive the same road on different days with different phones;
// each uploads its gradient track, and the cloud fuses them in the
// distance domain with the same Eq. 6 convex combination. Accuracy
// improves with the number of contributing vehicles — the crowd-sourced
// gradient map the paper envisions for routing services.
//
// The cloud side here is the streaming form: one FusionAccumulator holds
// the per-cell running sums, each upload folds in with add_track (O(track
// length), independent of how many vehicles came before), and snapshot()
// serves the current map. The final map is checked bit-identical to a
// batch fuse_tracks_distance over all uploads.
#include <cstdio>
#include <vector>

#include "core/evaluation.hpp"
#include "core/map_matching.hpp"
#include "core/pipeline.hpp"
#include "core/track_fusion.hpp"
#include "math/angles.hpp"
#include "math/stats.hpp"
#include "obs/obs.hpp"
#include "road/network.hpp"
#include "runtime/thread_pool.hpp"
#include "sensors/smartphone.hpp"
#include "vehicle/trip.hpp"

int main() {
  using namespace rge;

  const road::Road route = road::make_table3_route(2019);
  const vehicle::VehicleParams car;
  std::printf("Crowd-sourcing the gradient of '%s' (%.2f km)\n",
              route.name().c_str(), route.length_m() / 1000.0);

  // Eight vehicles, each with its own driver style, trip, and phone.
  const int kVehicles = 8;
  std::vector<sensors::SensorTrace> traces;
  for (int v = 0; v < kVehicles; ++v) {
    vehicle::TripConfig tc;
    tc.seed = 500 + v;
    tc.cruise_speed_mps = 9.0 + v * 0.8;  // different traffic conditions
    tc.lane_changes_per_km = 3.0;
    const auto trip = vehicle::simulate_trip(route, tc);
    sensors::SmartphoneConfig pc;
    pc.seed = 600 + v;
    traces.push_back(sensors::simulate_sensors(trip, route.anchor(), car, pc));
  }

  // The cloud side runs every trip through the parallel batch runtime —
  // same results as per-trip estimate_gradient calls, bit for bit, but
  // trips and per-source EKFs fan out across a thread pool. Every stage
  // records an obs span; with tracing on, span_totals() sums them by name
  // (times add up across the pool's threads).
  obs::set_tracing(true);
  const auto results =
      core::run_pipeline_batch(traces, car, {}, /*n_threads=*/4);
  obs::set_tracing(false);
  const auto spans = obs::span_totals();
  std::printf("batch runtime:");
  for (const char* stage : {"pipeline.trip", "pipeline.align",
                            "pipeline.detect", "pipeline.ekf",
                            "pipeline.fuse"}) {
    const auto it = spans.find(stage);
    const obs::SpanTotal total =
        it == spans.end() ? obs::SpanTotal{} : it->second;
    std::printf(" %s %lldx %.1f ms", stage,
                static_cast<long long>(total.count),
                static_cast<double>(total.total_ns) * 1e-6);
  }
  std::printf("\n");

  std::vector<core::GradeTrack> uploads;
  for (int v = 0; v < kVehicles; ++v) {
    // Re-key the fused track from filter odometry to map-matched road
    // distance so all vehicles share a datum — exactly what a deployment
    // does before uploading.
    core::GradeTrack keyed =
        core::rekey_track_by_road(results[v].fused, route, traces[v].gps);
    keyed.source = "vehicle-" + std::to_string(v);
    uploads.push_back(std::move(keyed));
  }

  // Stream the uploads: the serving grid is fixed up front (the fleet's
  // overlap on a 10 m spacing), each upload folds into the accumulator,
  // and the current map is snapshotted after every arrival.
  core::FusionConfig fc;
  fc.distance_step_m = 10.0;
  core::FusionAccumulator cloud(core::make_overlap_grid(uploads, fc), fc);
  std::printf("\n%-22s %12s %12s\n", "tracks fused", "MAE (deg)",
              "median (deg)");
  for (int k = 1; k <= kVehicles; ++k) {
    cloud.add_track(uploads[k - 1]);
    const core::GradeTrack fused = cloud.snapshot();
    // Truth at the fused track's distance keys.
    std::vector<double> est;
    std::vector<double> truth;
    for (std::size_t i = 0; i < fused.s.size(); ++i) {
      const double s = fused.s[i];
      if (s < 100.0 || s > route.length_m() - 50.0) continue;  // edges
      est.push_back(fused.grade[i]);
      truth.push_back(route.grade_at(s));
    }
    std::vector<double> abs_err_deg;
    for (std::size_t i = 0; i < est.size(); ++i) {
      abs_err_deg.push_back(math::rad2deg(std::abs(est[i] - truth[i])));
    }
    std::printf("%-22d %12.3f %12.3f\n", k,
                math::rad2deg(math::mae(est, truth)),
                math::median(abs_err_deg));
  }

  // The streamed map is not an approximation: it matches the batch fuse
  // (serial or pool-parallel, both bit-identical) on the same grid.
  runtime::ThreadPool pool(4);
  const core::GradeTrack batch_map =
      core::fuse_tracks_distance_batch(uploads, fc, pool);
  const bool identical = cloud.snapshot().grade == batch_map.grade &&
                         cloud.snapshot().grade_var == batch_map.grade_var;
  std::printf("\nstreamed map identical to batch re-fusion: %s\n",
              identical ? "yes" : "NO");

  std::printf(
      "\nEach vehicle's track carries its own trip-specific noise "
      "realization, so the cloud average keeps improving — the mechanism "
      "behind the paper's crowd-sourced gradient map. The accumulator "
      "makes that a streaming property: adding vehicle N costs the same "
      "as adding vehicle 1.\n");
  return 0;
}

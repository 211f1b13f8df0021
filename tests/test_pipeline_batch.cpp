// Determinism and equivalence tests for the parallel batch runtime:
// run_pipeline_batch must be bit-identical to the serial pipeline for any
// thread count, and the batch cloud-fusion entry point must match the
// serial fuser sample for sample. Per-stage timing is read back from the
// obs span totals.
#include "core/pipeline.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "core/map_matching.hpp"
#include "core/track_fusion.hpp"
#include "obs/obs.hpp"
#include "road/network.hpp"
#include "runtime/thread_pool.hpp"
#include "sensors/smartphone.hpp"
#include "vehicle/trip.hpp"

namespace rge::core {
namespace {

std::vector<sensors::SensorTrace> make_traces(int count) {
  const road::Road route = road::make_table3_route(2019);
  std::vector<sensors::SensorTrace> traces;
  for (int v = 0; v < count; ++v) {
    vehicle::TripConfig tc;
    tc.seed = 40 + static_cast<std::uint64_t>(v);
    tc.lane_changes_per_km = 3.0;
    tc.cruise_speed_mps = 9.0 + 0.5 * v;
    const auto trip = vehicle::simulate_trip(route, tc);
    sensors::SmartphoneConfig pc;
    pc.seed = 70 + static_cast<std::uint64_t>(v);
    traces.push_back(sensors::simulate_sensors(trip, route.anchor(),
                                               vehicle::VehicleParams{}, pc));
  }
  return traces;
}

/// Fresh obs state with metrics and span recording on; everything off and
/// cleared again on exit so tests do not leak state.
struct ObsSandbox {
  ObsSandbox() {
    obs::reset_all();
    obs::set_enabled(true);
    obs::set_tracing(true);
  }
  ~ObsSandbox() {
    obs::set_enabled(false);
    obs::set_tracing(false);
    obs::reset_all();
  }
  ObsSandbox(const ObsSandbox&) = delete;
  ObsSandbox& operator=(const ObsSandbox&) = delete;
};

/// Exact (bitwise, via ==) comparison of every array of two tracks.
void expect_tracks_identical(const GradeTrack& a, const GradeTrack& b) {
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.grade, b.grade);
  EXPECT_EQ(a.grade_var, b.grade_var);
  EXPECT_EQ(a.speed, b.speed);
  EXPECT_EQ(a.s, b.s);
}

TEST(PipelineBatch, BitIdenticalToSerialAcrossThreadCounts) {
  const auto traces = make_traces(3);
  const vehicle::VehicleParams car;
  const PipelineConfig cfg;

  std::vector<PipelineResult> serial;
  for (const auto& trace : traces) {
    serial.push_back(estimate_gradient(trace, car, cfg));
  }

  for (std::size_t threads : {1u, 2u, 8u}) {
    const auto batch = run_pipeline_batch(traces, car, cfg, threads);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("trace " + std::to_string(i) + ", threads " +
                   std::to_string(threads));
      expect_tracks_identical(batch[i].fused, serial[i].fused);
      ASSERT_EQ(batch[i].tracks.size(), serial[i].tracks.size());
      for (std::size_t k = 0; k < serial[i].tracks.size(); ++k) {
        expect_tracks_identical(batch[i].tracks[k], serial[i].tracks[k]);
      }
      EXPECT_EQ(batch[i].lane_changes.size(), serial[i].lane_changes.size());
    }
  }
}

TEST(PipelineBatch, EmptyInputYieldsEmptyOutput) {
  const auto results =
      run_pipeline_batch({}, vehicle::VehicleParams{}, PipelineConfig{}, 2);
  EXPECT_TRUE(results.empty());
}

TEST(PipelineBatch, PropagatesPerTraceErrors) {
  std::vector<sensors::SensorTrace> traces(1);  // empty trace
  EXPECT_THROW(
      run_pipeline_batch(traces, vehicle::VehicleParams{}, PipelineConfig{}, 2),
      std::invalid_argument);
}

TEST(PipelineBatch, MetricsAccumulateAcrossTrips) {
#if !RGE_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out";
#else
  const auto traces = make_traces(2);
  const ObsSandbox sandbox;
  const auto results = run_pipeline_batch(traces, vehicle::VehicleParams{},
                                          PipelineConfig{}, 2);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(obs::Registry::global().snapshot().counters.at("pipeline.trips"),
            2);
  const auto spans = obs::span_totals();
  for (const char* stage : {"pipeline.align", "pipeline.detect",
                            "pipeline.ekf", "pipeline.fuse"}) {
    SCOPED_TRACE(stage);
    ASSERT_EQ(spans.count(stage), 1u);
    EXPECT_EQ(spans.at(stage).count, 2);
    EXPECT_GT(spans.at(stage).total_ns, 0);
  }
#endif
}

TEST(PipelineBatch, FusedTracksSatisfyInvariants) {
  const auto traces = make_traces(2);
  const auto results =
      run_pipeline_batch(traces, vehicle::VehicleParams{}, PipelineConfig{}, 4);
  for (const auto& r : results) {
    EXPECT_NO_THROW(r.fused.validate());
  }
}

TEST(FuseDistanceBatch, BitIdenticalToSerialFuser) {
  // Two trips over the same road, re-keyed to road distance, fused on the
  // cloud path — the serial and pool entry points must agree exactly.
  const road::Road route = road::make_table3_route(2019);
  const auto traces = make_traces(2);
  const auto results =
      run_pipeline_batch(traces, vehicle::VehicleParams{}, PipelineConfig{}, 2);
  std::vector<GradeTrack> uploads;
  for (std::size_t v = 0; v < results.size(); ++v) {
    uploads.push_back(
        rekey_track_by_road(results[v].fused, route, traces[v].gps));
  }

  FusionConfig fc;
  fc.distance_step_m = 7.5;
  const GradeTrack serial = fuse_tracks_distance(uploads, fc);
  for (std::size_t threads : {1u, 3u}) {
    runtime::ThreadPool pool(threads);
    const ObsSandbox sandbox;
    const GradeTrack batch = fuse_tracks_distance_batch(uploads, fc, pool);
    expect_tracks_identical(batch, serial);
    if (obs::kCompiledIn) {
      const auto spans = obs::span_totals();
      ASSERT_EQ(spans.count("fusion.distance_batch"), 1u);
      EXPECT_EQ(spans.at("fusion.distance_batch").count, 1);
      EXPECT_GT(spans.at("fusion.distance_batch").total_ns, 0);
    }
  }
}

}  // namespace
}  // namespace rge::core

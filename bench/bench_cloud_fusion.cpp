// Cloud fusion bench (paper Section III-C3, last paragraph): the
// crowd-sourced gradient map at deployment scale.
//
// Part 1 — accuracy cohort (12 vehicles, full pipeline + map matching):
// the curve of gradient-map error vs number of contributing vehicles the
// paper sketches but never evaluates. The per-vehicle pipelines run
// through the parallel batch runtime; outputs are checked identical to
// the serial path.
//
// Part 2 — serving-layer scale (200-vehicle streamed fleet): what the
// cloud actually pays per upload. Compares (a) re-running
// fuse_tracks_distance over the fleet seen so far on every upload vs
// streaming the upload into a FusionAccumulator and re-snapshotting, with
// the final maps checked bit-identical, and (b) indexed vs brute-force
// map matching of chunked GPS uploads against a 40 km route through the
// cached RoadMatcher. Numbers land in BENCH_cloud_fusion.json — the
// perf-trajectory artifact also emitted by tests/test_cloud_fusion_perf.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "common.hpp"
#include "core/evaluation.hpp"
#include "core/map_matching.hpp"
#include "core/road_matcher.hpp"
#include "core/pipeline.hpp"
#include "core/track_fusion.hpp"
#include "math/angles.hpp"
#include "math/stats.hpp"
#include "obs/obs.hpp"
#include "road/network.hpp"
#include "runtime/thread_pool.hpp"
#include "testing/json.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return 1000.0 * seconds_since(start);
}

/// Synthetic upload for the scale section: the route's true grade plus a
/// per-vehicle noise realization with realistic EKF-style variances. The
/// accuracy claims all come from the pipeline-driven cohort in part 1;
/// these tracks only have to be the right *shape* to price the fusion.
rge::core::GradeTrack synth_upload(const rge::road::Road& route,
                                   std::uint32_t id, double s0, double s1,
                                   std::size_t n) {
  rge::core::GradeTrack tr;
  tr.source = "fleet-" + std::to_string(id);
  std::mt19937 rng(4000u + id);
  std::normal_distribution<double> noise(0.0, 0.005);
  std::uniform_real_distribution<double> var(1e-5, 4e-5);
  tr.t.resize(n);
  tr.s.resize(n);
  tr.grade.resize(n);
  tr.grade_var.resize(n);
  tr.speed.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double f =
        static_cast<double>(i) / static_cast<double>(n - 1);
    tr.s[i] = s0 + f * (s1 - s0);
    tr.t[i] = tr.s[i] / 13.9;
    tr.grade[i] = route.grade_at(tr.s[i]) + noise(rng);
    tr.grade_var[i] = var(rng);
    tr.speed[i] = 13.9;
  }
  return tr;
}

}  // namespace

int main() {
  using namespace rge;
  bench::print_header(
      "Cloud fusion: accuracy vs fleet size, and the serving-layer cost",
      "paper Section III-C3 (cloud fusion, sketched but not evaluated)");

  rge::obs::set_enabled(true);

  // ================= Part 1: accuracy cohort (full pipeline) ===========
  const road::Road route = road::make_table3_route(2019);
  const int kVehicles = 12;
  const std::size_t kThreads = 4;

  std::vector<bench::Drive> drives;
  std::vector<sensors::SensorTrace> traces;
  for (int v = 0; v < kVehicles; ++v) {
    bench::DriveOptions opts;
    opts.trip_seed = 800 + v;
    opts.phone_seed = 900 + v;
    opts.cruise_speed_mps = 8.0 + 0.7 * v;  // traffic diversity
    opts.lane_changes_per_km = 3.0;
    drives.push_back(bench::simulate_drive(route, opts));
    traces.push_back(drives.back().trace);
  }

  // Cloud map-building is offline: use the RTS-smoothed pipeline.
  core::PipelineConfig cfg;
  cfg.use_rts_smoother = true;
  const auto car = bench::default_vehicle();

  const auto t_serial = std::chrono::steady_clock::now();
  std::vector<core::PipelineResult> serial;
  for (const auto& trace : traces) {
    serial.push_back(core::estimate_gradient(trace, car, cfg));
  }
  const double serial_s = seconds_since(t_serial);

  // Stage summaries read the obs span totals of the batch run onward.
  rge::obs::set_tracing(true);
  const auto t_batch = std::chrono::steady_clock::now();
  const auto batch = core::run_pipeline_batch(traces, car, cfg, kThreads);
  const double batch_s = seconds_since(t_batch);

  bool identical = batch.size() == serial.size();
  for (std::size_t i = 0; identical && i < batch.size(); ++i) {
    identical = batch[i].fused.grade == serial[i].fused.grade &&
                batch[i].fused.grade_var == serial[i].fused.grade_var &&
                batch[i].fused.s == serial[i].fused.s;
  }
  std::printf(
      "\nruntime: serial %.2f s, batch(%zu threads) %.2f s -> speedup "
      "%.2fx on %u hardware threads; fused output identical: %s\n",
      serial_s, kThreads, batch_s, serial_s / batch_s,
      std::thread::hardware_concurrency(), identical ? "yes" : "NO");

  // Upload: re-key each fused track to map-matched road distance. All 12
  // rekey calls share one cached RoadMatcher (match.grid_build stays 1).
  std::vector<core::GradeTrack> uploads;
  for (int v = 0; v < kVehicles; ++v) {
    auto keyed =
        core::rekey_track_by_road(batch[v].fused, route, drives[v].trace.gps);
    keyed.source = "vehicle-" + std::to_string(v);
    uploads.push_back(std::move(keyed));
  }

  core::FusionConfig fc;
  fc.distance_step_m = 10.0;
  runtime::ThreadPool pool(kThreads);
  std::printf("\n%-10s %12s %14s %12s\n", "vehicles", "MAE (deg)",
              "median (deg)", "p90 (deg)");
  double cohort_full_mae = 0.0;
  for (int k = 1; k <= kVehicles; ++k) {
    const std::vector<core::GradeTrack> subset(uploads.begin(),
                                               uploads.begin() + k);
    const core::GradeTrack fused =
        k == 1 ? subset[0]
               : core::fuse_tracks_distance_batch(subset, fc, pool);
    std::vector<double> abs_err;
    for (std::size_t i = 0; i < fused.s.size(); ++i) {
      const double s = fused.s[i];
      if (s < 100.0 || s > route.length_m() - 50.0) continue;
      abs_err.push_back(
          math::rad2deg(std::abs(fused.grade[i] - route.grade_at(s))));
    }
    std::printf("%-10d %12.3f %14.3f %12.3f\n", k, math::mean(abs_err),
                math::median(abs_err), math::percentile(abs_err, 0.9));
    if (k == kVehicles) cohort_full_mae = math::mean(abs_err);
  }
  std::printf("stage spans: %s\n", bench::stage_summary().c_str());
  // Span recording stays off through Part 2's timed loops (a span per
  // matched chunk would be a visible share of the indexed matcher's time)
  // except around the bulk rebuild, which the second summary reports.
  rge::obs::set_tracing(false);

  // ================= Part 2: serving layer at fleet scale ==============
  // 40 km winding route, 200 uploads covering (nearly) all of it.
  road::RoadBuilder lb("fleet-long-route");
  double g = 0.0;
  for (int i = 0; i < 40; ++i) {
    const double next = math::deg2rad((i % 7) - 3.0);
    const double turn = math::deg2rad((i % 2 == 0) ? 35.0 : -35.0);
    lb.add_section(road::SectionSpec{1000.0, g, next, turn, 1});
    g = next;
  }
  const road::Road long_route = lb.build();
  const double length = long_route.length_m();

  constexpr std::size_t kFleet = 200;
  std::vector<core::GradeTrack> fleet;
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> head(0.0, 0.01 * length);
  std::uniform_real_distribution<double> tail(0.98 * length, length);
  for (std::size_t v = 0; v < kFleet; ++v) {
    fleet.push_back(synth_upload(long_route, static_cast<std::uint32_t>(v),
                                 head(rng), tail(rng), 1500));
  }

  core::FusionConfig fleet_cfg;
  fleet_cfg.distance_step_m = 10.0;

  // (a) naive cloud: every upload re-fuses everything seen so far.
  const auto t_refuse = std::chrono::steady_clock::now();
  for (std::size_t v = 0; v < kFleet; ++v) {
    const std::vector<core::GradeTrack> seen(fleet.begin(),
                                             fleet.begin() + v + 1);
    (void)core::fuse_tracks_distance(seen, fleet_cfg);
  }
  const double refuse_ms = ms_since(t_refuse);

  // (b) streaming cloud: accumulator add + snapshot per upload.
  const core::FusionGrid grid = core::make_overlap_grid(fleet, fleet_cfg);
  core::FusionAccumulator acc(grid, fleet_cfg);
  const auto t_stream = std::chrono::steady_clock::now();
  for (std::size_t v = 0; v < kFleet; ++v) {
    acc.add_track(fleet[v]);
    (void)acc.snapshot();
  }
  const double stream_ms = ms_since(t_stream);

  const core::GradeTrack full = core::fuse_tracks_distance(fleet, fleet_cfg);
  const core::GradeTrack streamed = acc.snapshot();
  const bool fleet_identical = streamed.grade == full.grade &&
                               streamed.grade_var == full.grade_var &&
                               streamed.speed == full.speed &&
                               streamed.t == full.t && streamed.s == full.s;

  // Bulk (re)build of the same map on the pool: fixed-chunk partial
  // accumulators merged in index order — deterministic for any pool size.
  core::FusionAccumulator bulk(grid, fleet_cfg);
  rge::obs::set_tracing(true);
  bulk.add_tracks_parallel(fleet, pool);
  rge::obs::set_tracing(false);
  const core::GradeTrack bulk_map = bulk.snapshot();
  const double bulk_mae_vs_stream = [&] {
    double m = 0.0;
    for (std::size_t i = 0; i < bulk_map.grade.size(); ++i) {
      m = std::max(m, std::abs(bulk_map.grade[i] - streamed.grade[i]));
    }
    return m;
  }();

  std::printf(
      "\nfleet fusion (%zu vehicles, %zu cells): re-fuse-from-scratch "
      "%.1f ms, accumulator stream %.1f ms -> %.1fx; final maps "
      "identical: %s; parallel bulk rebuild max |dgrade| %.2e rad\n",
      kFleet, grid.n, refuse_ms, stream_ms, refuse_ms / stream_ms,
      fleet_identical ? "yes" : "NO", bulk_mae_vs_stream);

  // (c) matching: chunked GPS uploads, indexed vs brute-force.
  const core::RoadMatcher matcher(long_route);
  const math::LocalTangentPlane ltp(long_route.anchor());
  constexpr std::size_t kChunks = 1500;
  constexpr std::size_t kFixesPerChunk = 12;
  std::vector<std::vector<sensors::GpsFix>> chunks;
  std::uniform_real_distribution<double> start_s(0.0, length - 400.0);
  std::uniform_real_distribution<double> lateral(-6.0, 6.0);
  for (std::size_t c = 0; c < kChunks; ++c) {
    std::vector<sensors::GpsFix> chunk;
    double s = start_s(rng);
    for (std::size_t i = 0; i < kFixesPerChunk; ++i) {
      const auto pos = long_route.position_at(s);
      const double h = long_route.heading_at(s);
      math::Enu p = pos;
      const double l = lateral(rng);
      p.east_m += -std::sin(h) * l;
      p.north_m += std::cos(h) * l;
      sensors::GpsFix fix;
      fix.t = static_cast<double>(i);
      fix.position = ltp.to_geodetic(p);
      chunk.push_back(fix);
      s += 15.0;
    }
    chunks.push_back(std::move(chunk));
  }
  auto run_matching = [&](core::RoadMatcher::Mode mode) {
    double checksum = 0.0;
    for (const auto& chunk : chunks) {
      checksum += matcher.match_track(chunk, mode).back().s_m;
    }
    return checksum;
  };
  (void)run_matching(core::RoadMatcher::Mode::kIndexed);  // warm
  const auto t_brute = std::chrono::steady_clock::now();
  const double sum_brute =
      run_matching(core::RoadMatcher::Mode::kBruteForce);
  const double brute_ms = ms_since(t_brute);
  const auto t_idx = std::chrono::steady_clock::now();
  const double sum_idx = run_matching(core::RoadMatcher::Mode::kIndexed);
  const double indexed_ms = ms_since(t_idx);

  std::printf(
      "fleet matching (%zu chunks x %zu fixes, %zu segments): brute "
      "%.1f ms, indexed %.1f ms -> %.1fx; results identical: %s\n",
      kChunks, kFixesPerChunk, matcher.vertex_count() - 1, brute_ms,
      indexed_ms, brute_ms / indexed_ms,
      sum_idx == sum_brute ? "yes" : "NO");
  std::printf("stage spans: %s\n", bench::stage_summary().c_str());

  // Observability: the serving counters this workload exercised.
  const auto snap = obs::Registry::global().snapshot();
  auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::int64_t{0} : it->second;
  };
  std::printf(
      "obs counters: match.query=%lld match.grid_build=%lld "
      "match.cache_hit=%lld fusion.add_track=%lld\n",
      static_cast<long long>(counter("match.query")),
      static_cast<long long>(counter("match.grid_build")),
      static_cast<long long>(counter("match.cache_hit")),
      static_cast<long long>(counter("fusion.add_track")));

  // ---- perf-trajectory artifact --------------------------------------
  testing::Json::Object doc;
  doc["workload"] = testing::Json::Object{
      {"n_vehicles", kFleet},
      {"samples_per_track", std::size_t{1500}},
      {"route_length_m", length},
      {"grid_cells", grid.n},
      {"grid_step_m", fleet_cfg.distance_step_m},
      {"match_chunks", kChunks},
      {"fixes_per_chunk", kFixesPerChunk},
      {"matcher_segments", matcher.vertex_count() - 1},
  };
  doc["fusion"] = testing::Json::Object{
      {"refuse_from_scratch_ms", refuse_ms},
      {"accumulator_stream_ms", stream_ms},
      {"speedup", refuse_ms / stream_ms},
      {"final_maps_identical", fleet_identical},
  };
  doc["matching"] = testing::Json::Object{
      {"brute_force_ms", brute_ms},
      {"indexed_ms", indexed_ms},
      {"speedup", brute_ms / indexed_ms},
  };
  doc["accuracy_cohort"] = testing::Json::Object{
      {"n_vehicles", std::size_t{static_cast<std::size_t>(kVehicles)}},
      {"full_fleet_mae_deg", cohort_full_mae},
  };
  testing::write_json_file(testing::Json(doc), "BENCH_cloud_fusion.json");
  std::printf("\nwrote BENCH_cloud_fusion.json\n");

  std::printf(
      "\nReading: the accumulator makes upload cost independent of fleet "
      "size (running sums per cell), and the hash-grid index makes global "
      "re-acquisition independent of route length — together they turn "
      "the cloud's per-upload work from O(fleet x grid + route) into "
      "O(track). The crowd *median* error still tightens within a "
      "handful of traversals; the tail remains set by GPS map-matching "
      "misalignment at grade transitions.\n");
  return 0;
}

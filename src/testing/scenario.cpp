#include "testing/scenario.hpp"

#include <stdexcept>
#include <utility>

#include "core/track_fusion.hpp"
#include "road/network.hpp"
#include "runtime/thread_pool.hpp"
#include "testing/terrain.hpp"

namespace rge::testing {

namespace {

/// Seed stride between the trips of a multi-trip scenario. Large and odd
/// so per-trip streams never collide with another scenario's base seeds.
constexpr std::uint64_t kTripSeedStride = 7919;

road::Road build_flat_short() {
  road::RoadBuilder b("flat-short");
  b.add_straight(1200.0, 0.0, 2);
  return b.build();
}

road::Road build_hilly_steep() {
  road::RoadBuilder b("hilly-steep");
  b.add_straight(150.0, 0.0, 2);
  b.add_section({250.0, 0.0, 0.07, 0.0, 2});   // climb to 7%
  b.add_section({200.0, 0.07, 0.07, 0.0, 2});  // hold
  b.add_section({300.0, 0.07, -0.05, 0.0, 2}); // crest into -5%
  b.add_section({200.0, -0.05, -0.05, 0.0, 2});
  b.add_section({200.0, -0.05, 0.0, 0.0, 2});
  b.add_straight(150.0, 0.0, 2);
  return b.build();
}

road::Road build_rolling_hills() {
  road::RoadBuilder b("rolling-hills");
  b.add_straight(120.0, 0.0, 2);
  for (int i = 0; i < 3; ++i) {
    b.add_section({150.0, 0.0, 0.03, 0.0, 2});
    b.add_section({150.0, 0.03, -0.03, 0.0, 2});
    b.add_section({150.0, -0.03, 0.0, 0.0, 2});
  }
  b.add_s_curve(240.0, 0.35, 0.01, 2);
  b.add_straight(120.0, 0.0, 2);
  return b.build();
}

road::Road build_lane_change_avenue() {
  road::RoadBuilder b("lane-change-avenue");
  b.add_straight(700.0, 0.01, 3);
  b.add_section({300.0, 0.01, -0.015, 0.0, 3});
  b.add_straight(700.0, -0.015, 3);
  b.add_section({300.0, -0.015, 0.005, 0.0, 3});
  return b.build();
}

road::Road build_highway() {
  road::RoadBuilder b("highway");
  b.add_straight(800.0, 0.0, 3);
  b.add_section({900.0, 0.0, 0.025, 0.0, 3});
  b.add_section({700.0, 0.025, 0.025, 0.0, 3});
  b.add_section({900.0, 0.025, -0.02, 0.0, 3});
  b.add_section({700.0, -0.02, 0.0, 0.0, 3});
  return b.build();
}

}  // namespace

road::Road build_route(RoutePreset preset) {
  switch (preset) {
    case RoutePreset::kFlatShort: return build_flat_short();
    case RoutePreset::kTable3: return road::make_table3_route(2019);
    case RoutePreset::kHillySteep: return build_hilly_steep();
    case RoutePreset::kRollingHills: return build_rolling_hills();
    case RoutePreset::kLaneChangeAvenue: return build_lane_change_avenue();
    case RoutePreset::kHighway: return build_highway();
  }
  throw std::invalid_argument("build_route: unknown preset");
}

vehicle::TripConfig driver_profile(DriverProfile profile) {
  vehicle::TripConfig tc;
  switch (profile) {
    case DriverProfile::kCalm:
      tc.cruise_speed_mps = 9.0;
      tc.accel_jitter_sigma = 0.2;
      tc.lane_changes_per_km = 0.6;
      break;
    case DriverProfile::kDefault:
      break;
    case DriverProfile::kAggressive:
      tc.cruise_speed_mps = 15.0;
      tc.max_accel = 2.6;
      tc.accel_jitter_sigma = 0.55;
      tc.lane_changes_per_km = 5.0;
      tc.lane_change_cooldown_s = 5.0;
      break;
  }
  return tc;
}

std::vector<ScenarioSpec> scenario_matrix() {
  std::vector<ScenarioSpec> specs;
  const auto add = [&](ScenarioSpec spec, std::uint64_t trip_seed,
                       std::uint64_t phone_seed) {
    spec.trip.seed = trip_seed;
    spec.phone.seed = phone_seed;
    specs.push_back(std::move(spec));
  };

  {
    ScenarioSpec s;
    s.name = "flat_baseline";
    s.route = RoutePreset::kFlatShort;
    s.trip = driver_profile(DriverProfile::kCalm);
    add(std::move(s), 101, 201);
  }
  {
    ScenarioSpec s;
    s.name = "table3_nominal";
    s.route = RoutePreset::kTable3;
    add(std::move(s), 102, 202);
  }
  {
    ScenarioSpec s;
    s.name = "hilly_steep";
    s.route = RoutePreset::kHillySteep;
    add(std::move(s), 103, 203);
  }
  {
    ScenarioSpec s;
    s.name = "rolling_hills_calm";
    s.route = RoutePreset::kRollingHills;
    s.trip = driver_profile(DriverProfile::kCalm);
    add(std::move(s), 104, 204);
  }
  {
    ScenarioSpec s;
    s.name = "lane_change_storm";
    s.route = RoutePreset::kLaneChangeAvenue;
    s.trip = driver_profile(DriverProfile::kAggressive);
    s.trip.lane_changes_per_km = 6.0;
    add(std::move(s), 105, 205);
  }
  {
    ScenarioSpec s;
    s.name = "stop_and_go";
    s.route = RoutePreset::kTable3;
    s.trip.stops_per_km = 2.5;
    s.trip.cruise_speed_mps = 8.0;
    add(std::move(s), 106, 206);
  }
  {
    ScenarioSpec s;
    s.name = "noisy_phone";
    s.route = RoutePreset::kTable3;
    s.phone.accel_white_sigma = 0.15;
    s.phone.gyro_white_sigma = 0.02;
    s.phone.speedometer_sigma = 0.8;
    s.phone.gps_speed_sigma = 0.8;
    s.phone.disturbances_per_minute = 2.0;
    add(std::move(s), 107, 207);
  }
  {
    ScenarioSpec s;
    s.name = "gps_degraded";
    s.route = RoutePreset::kRollingHills;
    s.phone.random_outage_count = 3;
    s.phone.gps_pos_sigma_m = 6.0;
    s.phone.gps_speed_sigma = 0.6;
    add(std::move(s), 108, 208);
  }
  {
    ScenarioSpec s;
    s.name = "highway_cruise";
    s.route = RoutePreset::kHighway;
    s.trip.cruise_speed_mps = 24.0;
    s.trip.lane_changes_per_km = 1.0;
    add(std::move(s), 109, 209);
  }
  {
    ScenarioSpec s;
    s.name = "rts_offline";
    s.route = RoutePreset::kHillySteep;
    s.pipeline.use_rts_smoother = true;
    add(std::move(s), 110, 210);
  }
  {
    ScenarioSpec s;
    s.name = "cloud_fusion_x3";
    s.route = RoutePreset::kTable3;
    s.n_trips = 3;
    add(std::move(s), 111, 211);
  }
  // Fuzzer-found worlds promoted from the committed corpus (fuzz_runner
  // --seed=N): terrains that exercise GPS denial and steep grades harder
  // than any hand-built route above.
  {
    // Corpus seed 2: canyon -> switchbacks -> tunnel. Multipath bursts
    // followed by a hard denial with +-8..12 % hairpins in between.
    ScenarioSpec s;
    s.name = "hostile_canyon_switchbacks";
    s.hostile_seed = 2;
    add(std::move(s), 112, 212);
  }
  {
    // Corpus seed 7: steep climb -> canyon -> steep descent. Once a NaN
    // repro in the fuzzer; pinned so the regression surface keeps it.
    ScenarioSpec s;
    s.name = "hostile_steep_canyon";
    s.hostile_seed = 7;
    add(std::move(s), 113, 213);
  }
  {
    // Corpus seed 11: tunnel -> rolling hills -> switchbacks -> canyon.
    // Both GPS-denial flavours on one route, driven calmly.
    ScenarioSpec s;
    s.name = "hostile_tunnel_canyon";
    s.hostile_seed = 11;
    s.trip = driver_profile(DriverProfile::kCalm);
    add(std::move(s), 114, 214);
  }
  return specs;
}

ScenarioWorld build_world(const ScenarioSpec& spec) {
  ScenarioWorld world;
  std::vector<std::pair<double, double>> denied_s;
  std::vector<std::pair<double, double>> degraded_s;
  if (spec.hostile_seed != 0) {
    HostileWorld hostile = compose_hostile_world(spec.hostile_seed);
    world.road = std::move(hostile.road);
    denied_s = std::move(hostile.gps_denied_s);
    degraded_s = std::move(hostile.gps_degraded_s);
  } else {
    world.road = build_route(spec.route);
  }
  world.reference = road::survey_reference_profile(world.road);
  const vehicle::VehicleParams params;
  const int n = std::max(1, spec.n_trips);
  world.trips.reserve(static_cast<std::size_t>(n));
  world.traces.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    vehicle::TripConfig tc = spec.trip;
    tc.seed = spec.trip.seed + kTripSeedStride * static_cast<std::uint64_t>(i);
    world.trips.push_back(vehicle::simulate_trip(world.road, tc));
    const vehicle::Trip& trip = world.trips.back();
    sensors::SmartphoneConfig pc = spec.phone;
    pc.seed =
        spec.phone.seed + kTripSeedStride * static_cast<std::uint64_t>(i);
    // Same terrain -> sensor-environment folding as the fuzzer: tunnels
    // deny GPS over their full time window, canyons burst it.
    for (const auto& [s0, s1] : denied_s) {
      for (const auto& window : arc_interval_to_time_windows(trip, s0, s1)) {
        pc.gps_outages.push_back(window);
      }
    }
    for (const auto& [s0, s1] : degraded_s) {
      for (const auto& [t0, t1] : arc_interval_to_time_windows(trip, s0, s1)) {
        for (double t = t0; t < t1; t += 12.0) {
          pc.gps_outages.emplace_back(t, std::min(t1, t + 4.0));
        }
      }
    }
    world.traces.push_back(sensors::simulate_sensors(
        trip, world.road.anchor(), params, pc));
  }
  return world;
}

ScenarioRun run_scenario(const ScenarioSpec& spec, const ScenarioWorld& world,
                         const FaultSpec& fault, std::size_t n_threads) {
  ScenarioRun run;

  std::vector<sensors::SensorTrace> traces = world.traces;
  for (auto& trace : traces) apply_fault(trace, fault);

  const vehicle::VehicleParams params;
  std::vector<core::PipelineResult> results;
  try {
    results = core::run_pipeline_batch(traces, params, spec.pipeline,
                                       n_threads);
  } catch (const std::invalid_argument& e) {
    run.rejected = true;
    run.reject_reason = e.what();
    return run;
  }

  run.tracks = results.front().tracks;
  const bool multi_trip = results.size() > 1;
  if (multi_trip) {
    std::vector<core::GradeTrack> fused_per_trip;
    fused_per_trip.reserve(results.size());
    for (auto& r : results) fused_per_trip.push_back(std::move(r.fused));
    runtime::ThreadPool pool(n_threads);
    run.fused = core::fuse_tracks_distance_batch(
        fused_per_trip, spec.pipeline.fusion, pool);
  } else {
    run.fused = std::move(results.front().fused);
  }
  run.fused.validate();

  run.metrics = compute_scenario_metrics(
      run.fused, world.reference, world.trips.front(), world.road.length_m(),
      /*time_domain=*/!multi_trip);
  return run;
}

}  // namespace rge::testing

// Scenario specs for the regression matrix: route preset x driver profile
// x SmartphoneConfig x RNG seed, with an optional multi-trip cloud-fusion
// dimension. Every scenario is fully deterministic — the committed spec
// list IS the regression surface, in the spirit of fixed-scenario
// evaluation protocols (KITTI-style: a frozen input set, frozen metrics,
// and published baselines anyone can re-run bit-exactly).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "road/reference_profile.hpp"
#include "road/road.hpp"
#include "sensors/smartphone.hpp"
#include "testing/fault_injection.hpp"
#include "testing/metrics.hpp"
#include "vehicle/trip.hpp"

namespace rge::testing {

enum class RoutePreset {
  kFlatShort,        ///< 1.2 km dead flat, 2 lanes — floor-noise control
  kTable3,           ///< the paper's 2.16 km evaluation route
  kHillySteep,       ///< sustained 4-8% ramps with sharp transitions
  kRollingHills,     ///< short alternating grades + an S-curve
  kLaneChangeAvenue, ///< 3-lane straight avenue, gentle grades
  kHighway,          ///< 4 km fast road, long gentle grades
};

enum class DriverProfile { kCalm, kDefault, kAggressive };

struct ScenarioSpec {
  std::string name;
  RoutePreset route = RoutePreset::kTable3;
  vehicle::TripConfig trip;        ///< includes seed + driver behaviour
  sensors::SmartphoneConfig phone; ///< includes seed + noise/outage model
  core::PipelineConfig pipeline;
  /// > 1 drives the same route repeatedly (distinct trip/phone seeds) and
  /// cloud-fuses the per-trip tracks on the arc-length grid — the
  /// multi-trip fusion axis of the matrix.
  int n_trips = 1;
  /// When nonzero, the route comes from the hostile-world composer
  /// (testing/terrain.hpp) seeded with this value instead of `route`, and
  /// the terrain's GPS-denied/degraded arc spans are folded into each
  /// trip's phone outage windows — fuzzer-found worlds promoted into the
  /// committed matrix.
  std::uint64_t hostile_seed = 0;
};

/// Route/driver builders (exposed for tests).
road::Road build_route(RoutePreset preset);
vehicle::TripConfig driver_profile(DriverProfile profile);

/// The committed scenario matrix (~10 scenarios spanning flat/hilly
/// routes, lane-change pressure, degraded sensors, offline smoothing, and
/// multi-trip fusion). Names are stable: they key tests/golden/<name>.json.
std::vector<ScenarioSpec> scenario_matrix();

/// Everything derived deterministically from a spec before estimation.
struct ScenarioWorld {
  road::Road road;
  road::ReferenceProfile reference; ///< Section III-D survey of the route
  std::vector<vehicle::Trip> trips;
  std::vector<sensors::SensorTrace> traces;
};

ScenarioWorld build_world(const ScenarioSpec& spec);

/// One estimation run over a (possibly fault-injected) world.
struct ScenarioRun {
  /// True when the pipeline refused the input with std::invalid_argument —
  /// the "rejects cleanly" arm of the graceful-degradation contract.
  bool rejected = false;
  std::string reject_reason;
  core::GradeTrack fused;                ///< system output (empty if rejected)
  std::vector<core::GradeTrack> tracks;  ///< per-source tracks of trip 0
  ScenarioMetrics metrics;               ///< valid when !rejected
};

/// Run the pipeline over `world` with `fault` applied to a copy of every
/// trace. n_threads drives the batch runtime (1 = serial-equivalent).
/// @throws only for harness-internal errors; pipeline rejections are
/// reported via ScenarioRun::rejected, and any other pipeline exception
/// (logic_error, crash-adjacent) propagates — the harness treats that as
/// a hard failure by design.
ScenarioRun run_scenario(const ScenarioSpec& spec, const ScenarioWorld& world,
                         const FaultSpec& fault, std::size_t n_threads);

}  // namespace rge::testing

// Benchmark inputs, generated from the seed before anything is timed.
// Scene generation (road, vehicle and sensor simulation) is input, not a
// layer under test: it is neither timed nor counted in setup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "road/network.hpp"
#include "sensors/trace.hpp"
#include "service/map_service.hpp"
#include "vehicle/params.hpp"

namespace e2e {

/// Raw phone trips, each the full drive of one road of the network.
struct TripBatch {
  std::vector<rge::service::RoadId> roads;
  std::vector<rge::sensors::SensorTrace> traces;
};

using OdPair = std::pair<std::size_t, std::size_t>;

/// `survey`: every road of the paper's network (Fig. 7a) driven once per
/// pass by a simulated phone, trips shuffled into `n_batches` batches.
/// The seed picks driving, phones, noise and order; the road mix is fixed.
struct SurveyScene {
  rge::road::RoadNetwork net;
  rge::vehicle::VehicleParams car;
  std::vector<TripBatch> batches;
  std::vector<OdPair> od;  ///< route queries, node ids of the road graph
};

/// `uploads` and `routes`: pre-estimated per-road gradient tracks from a
/// fleet, roads picked with probability proportional to their AADT
/// volume (emissions::TrafficModel), grouped into ingest batches.
struct FleetScene {
  rge::road::RoadNetwork net;
  std::vector<std::vector<rge::service::TrackUpload>> batches;
  std::size_t vehicles = 0;
  std::vector<OdPair> od;  ///< route queries, node ids of the road graph
};

/// Node count of the routing graph build_network_graph makes for `net`
/// (the topology does not depend on the grades).
std::size_t graph_node_count(const rge::road::RoadNetwork& net);

SurveyScene make_survey_scene(std::uint64_t seed, std::size_t n_batches,
                              std::size_t n_od);

FleetScene make_fleet_scene(rge::road::RoadNetwork net, std::uint64_t seed,
                            std::size_t vehicles, std::size_t batch_uploads,
                            std::size_t n_od);

}  // namespace e2e

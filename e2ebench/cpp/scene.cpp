#include "scene.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "chain.hpp"
#include "emissions/emissions.hpp"
#include "math/rng.hpp"
#include "planning/city_gen.hpp"
#include "runtime/thread_pool.hpp"
#include "sensors/smartphone.hpp"
#include "vehicle/trip.hpp"

namespace e2e {

using namespace rge;

namespace {

std::vector<OdPair> make_od(std::size_t n_nodes, std::size_t count,
                            math::Rng rng) {
  std::vector<OdPair> od;
  od.reserve(count);
  const auto hi = static_cast<std::int64_t>(n_nodes) - 1;
  while (od.size() < count) {
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, hi));
    const auto b = static_cast<std::size_t>(rng.uniform_int(0, hi));
    if (a != b) od.emplace_back(a, b);
  }
  return od;
}

/// A vehicle's partial-trip upload: the road's true grade plus per-vehicle
/// noise, one sample every ~5 m over a random sub-span of at least 250 m.
service::TrackUpload synth_upload(const road::RoadNetwork& net,
                                  service::RoadId road_id,
                                  std::size_t vehicle, math::Rng& rng) {
  const road::Road& road = net.roads()[road_id].road;
  const double len = road.length_m();
  const double span_min = std::min(250.0, len);
  const double s0 = rng.uniform(0.0, len - span_min);
  const double s1 = s0 + span_min + rng.uniform(0.0, len - s0 - span_min);
  const auto n =
      std::max<std::size_t>(16, static_cast<std::size_t>((s1 - s0) / 5.0));
  const double speed = rng.uniform(8.0, 16.0);
  const double sigma = rng.uniform(0.002, 0.006);

  service::TrackUpload up;
  up.road = road_id;
  core::GradeTrack& tr = up.track;
  tr.source = "veh-" + std::to_string(vehicle);
  tr.t.resize(n);
  tr.s.resize(n);
  tr.grade.resize(n);
  tr.grade_var.resize(n);
  tr.speed.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(n - 1);
    const double s = s0 + f * (s1 - s0);
    tr.s[i] = s;
    tr.t[i] = (s - s0) / speed;
    tr.grade[i] = road.grade_at(s) + rng.gaussian(0.0, sigma);
    tr.grade_var[i] = sigma * sigma;
    tr.speed[i] = speed;
  }
  return up;
}

}  // namespace

std::size_t graph_node_count(const road::RoadNetwork& net) {
  std::vector<std::vector<double>> flat(net.size());
  for (std::size_t r = 0; r < net.size(); ++r) {
    flat[r].assign(profile_len(net.roads()[r].road), 0.0);
  }
  return planning::build_network_graph(net, flat, kProfileStepM)
      .node_count();
}

SurveyScene make_survey_scene(std::uint64_t seed, std::size_t n_batches,
                              std::size_t n_od) {
  SurveyScene sc;
  sc.net = road::make_city_network(2019);
  const math::Rng root = math::Rng(seed).fork("e2e-survey");

  std::vector<service::RoadId> order(sc.net.size());
  std::iota(order.begin(), order.end(), service::RoadId{0});
  math::Rng shuffle_rng = root.fork("order");
  std::shuffle(order.begin(), order.end(), shuffle_rng.engine());

  std::vector<sensors::SensorTrace> traces(order.size());
  runtime::ThreadPool pool;
  runtime::parallel_for(pool, traces.size(), [&](std::size_t i) {
    const service::RoadId r = order[i];
    const road::Road& road = sc.net.roads()[r].road;
    math::Rng rng = root.fork(1000 + i);
    vehicle::TripConfig tc;
    tc.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1LL << 40));
    tc.cruise_speed_mps = rng.uniform(9.0, 14.0);
    const auto trip = vehicle::simulate_trip(road, tc);
    sensors::SmartphoneConfig pc;
    pc.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1LL << 40));
    traces[i] = sensors::simulate_sensors(trip, road.anchor(), sc.car, pc);
  });

  const std::size_t batch_trips = (traces.size() + n_batches - 1) / n_batches;
  for (std::size_t i = 0; i < traces.size(); i += batch_trips) {
    TripBatch& b = sc.batches.emplace_back();
    for (std::size_t j = i; j < std::min(traces.size(), i + batch_trips);
         ++j) {
      b.roads.push_back(order[j]);
      b.traces.push_back(std::move(traces[j]));
    }
  }
  sc.od = make_od(graph_node_count(sc.net), n_od, root.fork("od"));
  return sc;
}

FleetScene make_fleet_scene(road::RoadNetwork net, std::uint64_t seed,
                            std::size_t vehicles, std::size_t batch_uploads,
                            std::size_t n_od) {
  FleetScene sc;
  sc.net = std::move(net);
  sc.vehicles = vehicles;
  const math::Rng root = math::Rng(seed).fork("e2e-fleet");

  // Road popularity: hourly AADT volume of the road's class and index.
  const emissions::TrafficModel traffic;
  std::vector<double> cumulative(sc.net.size());
  double total = 0.0;
  for (std::size_t r = 0; r < sc.net.size(); ++r) {
    total += traffic.vehicles_per_hour(sc.net.roads()[r].road_class, r);
    cumulative[r] = total;
  }

  math::Rng rng = root.fork("uploads");
  std::vector<service::TrackUpload> fleet;
  fleet.reserve(vehicles);
  for (std::size_t v = 0; v < vehicles; ++v) {
    const double u = rng.uniform(0.0, total);
    const auto r = static_cast<service::RoadId>(std::min<std::size_t>(
        sc.net.size() - 1,
        static_cast<std::size_t>(
            std::upper_bound(cumulative.begin(), cumulative.end(), u) -
            cumulative.begin())));
    fleet.push_back(synth_upload(sc.net, r, v, rng));
  }
  for (std::size_t i = 0; i < fleet.size(); i += batch_uploads) {
    const std::size_t end = std::min(fleet.size(), i + batch_uploads);
    sc.batches.emplace_back(std::make_move_iterator(fleet.begin() + i),
                            std::make_move_iterator(fleet.begin() + end));
  }
  if (n_od > 0) sc.od = make_od(graph_node_count(sc.net), n_od, root.fork("od"));
  return sc;
}

}  // namespace e2e

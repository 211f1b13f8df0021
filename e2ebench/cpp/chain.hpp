// The chain under test, assembled only from the program's public APIs:
// service::MapService (ingest / publish / snapshot), then the refresh of
// the routing graph from the published map (build_network_graph and the
// CsrGraph constructor), then CsrGraph::route.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "planning/city_gen.hpp"
#include "planning/csr_graph.hpp"
#include "road/network.hpp"
#include "service/map_service.hpp"
#include "trace.hpp"

namespace e2e {

/// Grade-profile spacing handed to build_network_graph (m).
inline constexpr double kProfileStepM = 25.0;

/// Samples of a road's profile at kProfileStepM from s = 0 to the end.
std::size_t profile_len(const rge::road::Road& road);

/// The serving configuration every workload uses: 8 shards of 2 km tiles
/// on a 5 m fusion grid (the sharded-service deployment of the paper).
rge::service::MapServiceConfig service_config();

/// Per-road grade profiles from a published snapshot: covered cells are
/// interpolated linearly (held flat past the first/last covered cell),
/// roads nobody has driven yet are flat.
std::vector<std::vector<double>> profiles_from_snapshot(
    const rge::service::ServiceSnapshot& snap,
    const rge::road::RoadNetwork& net);

/// A recorded route, re-checked against plain Dijkstra after timing.
struct RouteRecord {
  std::size_t from = 0;
  std::size_t to = 0;
  rge::planning::Metric metric = rge::planning::Metric::kDistance;
  rge::planning::RouteGraph::Route route;
};

/// A frozen routing graph of one published epoch. Audited versions keep
/// the routes priced on them for the post-run check.
struct GraphVersion {
  GraphVersion(const rge::planning::RouteGraph& g, std::uint64_t epoch_,
               Clock::time_point due_, bool audited_)
      : csr(g), epoch(epoch_), due(due_), audited(audited_) {}

  rge::planning::CsrGraph csr;
  std::uint64_t epoch;
  Clock::time_point due;  ///< when the batch behind this epoch was due
  bool audited;

  /// Record `rec` if this version is audited (bounded per version).
  void record(RouteRecord rec) const;
  /// Number of routes that differ from use_alt=false Dijkstra.
  std::size_t recheck(std::size_t& checked) const;

 private:
  static constexpr std::size_t kMaxRecords = 256;
  mutable std::mutex mu_;
  mutable std::vector<RouteRecord> records_;  // guarded by mu_
};

/// Refresh: the routing graph of the service's latest published epoch
/// (snapshot -> per-road profiles -> build_network_graph -> CsrGraph),
/// with spans around each layer call.
std::shared_ptr<const GraphVersion> refresh_graph(
    const rge::service::MapService& svc, const rge::road::RoadNetwork& net,
    Clock::time_point due, bool audited, SpanLog& log);

/// Keeps every audited graph version alive until the post-run check.
/// Used from one writer thread only.
class RouteAudit {
 public:
  /// Every `every`-th epoch is audited, at most `max_versions` of them.
  RouteAudit(std::uint64_t every, std::size_t max_versions)
      : every_(every), max_versions_(max_versions) {}

  bool wants(std::uint64_t epoch) const {
    return epoch % every_ == 0 && kept_.size() < max_versions_;
  }
  void keep(std::shared_ptr<const GraphVersion> v) {
    if (v->audited) kept_.push_back(std::move(v));
  }
  /// Re-route every recorded query with use_alt=false; returns mismatches.
  std::size_t recheck(std::size_t& checked) const;

 private:
  std::uint64_t every_;
  std::size_t max_versions_;
  std::vector<std::shared_ptr<const GraphVersion>> kept_;
};

}  // namespace e2e

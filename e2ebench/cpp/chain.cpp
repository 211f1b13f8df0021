#include "chain.hpp"

#include <algorithm>
#include <cmath>

namespace e2e {

using namespace rge;

std::size_t profile_len(const road::Road& road) {
  return static_cast<std::size_t>(
             std::floor(road.length_m() / kProfileStepM)) + 1;
}

service::MapServiceConfig service_config() {
  service::MapServiceConfig cfg;
  cfg.n_shards = 8;
  cfg.tile_length_m = 2000.0;
  cfg.fusion.distance_step_m = 5.0;
  return cfg;
}

std::vector<std::vector<double>> profiles_from_snapshot(
    const service::ServiceSnapshot& snap, const road::RoadNetwork& net) {
  std::vector<std::vector<double>> profiles(net.size());
  for (std::size_t r = 0; r < net.size(); ++r) {
    std::vector<double>& p = profiles[r];
    p.assign(profile_len(net.roads()[r].road), 0.0);
    if (r >= snap.roads.size() || snap.roads[r].size() == 0) continue;
    const std::vector<double>& s = snap.roads[r].track.s;
    const std::vector<double>& g = snap.roads[r].track.grade;
    std::size_t j = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double x = static_cast<double>(i) * kProfileStepM;
      while (j + 1 < s.size() && s[j + 1] <= x) ++j;
      if (x <= s.front()) {
        p[i] = g.front();
      } else if (j + 1 >= s.size()) {
        p[i] = g.back();
      } else {
        const double f = (x - s[j]) / (s[j + 1] - s[j]);
        p[i] = g[j] + f * (g[j + 1] - g[j]);
      }
    }
  }
  return profiles;
}

void GraphVersion::record(RouteRecord rec) const {
  if (!audited) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() < kMaxRecords) records_.push_back(std::move(rec));
}

std::size_t GraphVersion::recheck(std::size_t& checked) const {
  const std::lock_guard<std::mutex> lock(mu_);
  planning::QueryContext ctx;
  std::size_t mismatches = 0;
  for (const RouteRecord& rec : records_) {
    const auto ref = csr.route(rec.from, rec.to, rec.metric, ctx, false);
    const auto& r = rec.route;
    if (ref.found != r.found || ref.cost != r.cost || ref.nodes != r.nodes ||
        ref.edges != r.edges) {
      ++mismatches;
    }
    ++checked;
  }
  return mismatches;
}

std::shared_ptr<const GraphVersion> refresh_graph(
    const service::MapService& svc, const road::RoadNetwork& net,
    Clock::time_point due, bool audited, SpanLog& log) {
  std::shared_ptr<const service::ServiceSnapshot> snap;
  {
    const SpanLog::Scope span(log, layer::kSnapshot);
    snap = svc.snapshot();
  }
  const auto profiles = profiles_from_snapshot(*snap, net);
  std::unique_ptr<planning::RouteGraph> graph;
  {
    const SpanLog::Scope span(log, layer::kGraph);
    graph = std::make_unique<planning::RouteGraph>(
        planning::build_network_graph(net, profiles, kProfileStepM));
  }
  const SpanLog::Scope span(log, layer::kFreeze);
  return std::make_shared<const GraphVersion>(*graph, snap->epoch, due,
                                              audited);
}

std::size_t RouteAudit::recheck(std::size_t& checked) const {
  std::size_t mismatches = 0;
  for (const auto& v : kept_) mismatches += v->recheck(checked);
  return mismatches;
}

}  // namespace e2e

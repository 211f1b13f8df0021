#include "oracles/dijkstra.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rge::oracles {

using planning::Edge;
using planning::RouteGraph;

RouteGraph::Route shortest_path(const RouteGraph& g, std::size_t from,
                                std::size_t to, const CostFn& cost) {
  const std::size_t n = g.node_count();
  if (from >= n || to >= n) {
    throw std::invalid_argument("shortest_path: bad endpoints");
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, kInf);
  std::vector<std::size_t> via_edge(n, std::numeric_limits<std::size_t>::max());

  using Item = std::pair<double, std::size_t>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  dist[from] = 0.0;
  queue.emplace(0.0, from);

  while (!queue.empty()) {
    const auto [d, node] = queue.top();
    queue.pop();
    if (d > dist[node]) continue;
    if (node == to) break;
    for (const std::size_t ei : g.out_edges(node)) {
      const Edge& e = g.edge(ei);
      const double c = cost(e);
      if (c < 0.0) {
        throw std::logic_error("shortest_path: negative edge cost");
      }
      const double nd = d + c;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        via_edge[e.to] = ei;
        queue.emplace(nd, e.to);
      } else if (nd == dist[e.to] && ei < via_edge[e.to]) {
        // Deterministic tie-break: on bitwise-equal cost, keep the lowest
        // incoming edge index. Every genuine tie predecessor settles
        // strictly before the target (all costs are positive), so the final
        // via_edge is the arg-min over all equal-cost relaxations no matter
        // which order the heap served them in.
        via_edge[e.to] = ei;
      }
    }
  }

  RouteGraph::Route route;
  if (dist[to] == kInf) return route;
  route.found = true;
  route.cost = dist[to];
  std::size_t node = to;
  while (node != from) {
    const std::size_t ei = via_edge[node];
    route.edges.push_back(ei);
    route.nodes.push_back(node);
    route.length_m += g.edge(ei).length_m;
    node = g.edge(ei).from;
  }
  route.nodes.push_back(from);
  std::reverse(route.nodes.begin(), route.nodes.end());
  std::reverse(route.edges.begin(), route.edges.end());
  return route;
}

double edge_cost_distance(const Edge& e) { return e.length_m; }

double edge_cost_time(const Edge& e, double speed_mps) {
  if (speed_mps <= 0.0) {
    throw std::invalid_argument("edge_cost_time: speed must be > 0");
  }
  return e.length_m / speed_mps;
}

double edge_cost_fuel(const Edge& e, double speed_mps,
                      const emissions::VspParams& vsp) {
  if (speed_mps <= 0.0) {
    throw std::invalid_argument("edge_cost_fuel: speed must be > 0");
  }
  return emissions::profile_fuel_gal(e.grades, e.grade_step_m, speed_mps,
                                     vsp);
}

CostFn metric_cost(planning::Metric m, const planning::CostModel& model) {
  return [m, model](const Edge& e) {
    const double speed =
        e.speed_mps > 0.0 ? e.speed_mps : model.default_speed_mps;
    switch (m) {
      case planning::Metric::kDistance: return edge_cost_distance(e);
      case planning::Metric::kTime: return edge_cost_time(e, speed);
      case planning::Metric::kFuel: return edge_cost_fuel(e, speed, model.vsp);
      case planning::Metric::kCo2:
        return edge_cost_fuel(e, speed, model.vsp) * model.co2_g_per_gal;
    }
    return 0.0;
  };
}

}  // namespace rge::oracles

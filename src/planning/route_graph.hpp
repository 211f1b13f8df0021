// Road-network routing graph for gradient-aware route planning — the
// second application the paper's introduction motivates ("driving route
// planning ... especially for the roads with large road gradient").
//
// Nodes are intersections; directed edges carry a length and a gradient
// profile (from the estimation pipeline or ground truth). RouteGraph only
// builds and validates the network; planning::CsrGraph freezes it into
// per-metric cost tables and answers route queries. The std::function
// Dijkstra CsrGraph is checked against lives in
// tests/oracles/dijkstra.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "road/network.hpp"

namespace rge::planning {

struct Edge {
  std::size_t from = 0;
  std::size_t to = 0;
  double length_m = 0.0;
  /// Gradient (rad) sampled every `grade_step_m` along the edge, in the
  /// from->to direction. Reverse edges must carry negated samples.
  /// `grade_step_m * grades.size()` must equal `length_m` (to within
  /// floating-point tolerance); add_edge rejects inconsistent profiles so
  /// the stored step and the derived step can never silently diverge.
  std::vector<double> grades;
  double grade_step_m = 25.0;
  /// Free-flow cruise speed for this street (m/s). <= 0 means "unset";
  /// cost models substitute their default speed.
  double speed_mps = 0.0;
  /// Functional class, used for per-class speeds and AADT traffic volumes.
  road::RoadClass road_class = road::RoadClass::kResidential;
};

class RouteGraph {
 public:
  /// @param node_count number of intersections
  explicit RouteGraph(std::size_t node_count);

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  /// Add a directed edge; returns its index.
  /// @throws std::invalid_argument on bad endpoints, an empty profile, a
  /// non-finite or non-positive length or step, a non-finite grade
  /// sample, or a step that does not tile the length.
  std::size_t add_edge(Edge edge);
  /// Add both directions with mirrored (negated, reversed) gradients.
  void add_bidirectional(const Edge& forward);

  const Edge& edge(std::size_t idx) const { return edges_.at(idx); }
  const std::vector<std::size_t>& out_edges(std::size_t node) const {
    return adjacency_.at(node);
  }

  /// A route query result (CsrGraph::route).
  struct Route {
    std::vector<std::size_t> nodes;
    std::vector<std::size_t> edges;
    double cost = 0.0;
    double length_m = 0.0;
    bool found = false;
  };

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> adjacency_;
};

/// Synthetic grid city: rows x cols intersections, ~block_m apart, every
/// street segment an edge pair with a seeded random gradient profile
/// (hilly in one corner, flat in the other). Deterministic per seed.
RouteGraph make_grid_city(std::size_t rows, std::size_t cols,
                          double block_m, std::uint64_t seed);

}  // namespace rge::planning

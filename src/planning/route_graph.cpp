#include "planning/route_graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/rng.hpp"

namespace rge::planning {

RouteGraph::RouteGraph(std::size_t node_count) : adjacency_(node_count) {}

std::size_t RouteGraph::add_edge(Edge edge) {
  if (edge.from >= node_count() || edge.to >= node_count()) {
    throw std::invalid_argument("RouteGraph::add_edge: bad endpoints");
  }
  if (!std::isfinite(edge.length_m) || edge.length_m <= 0.0 ||
      !std::isfinite(edge.grade_step_m) || edge.grade_step_m <= 0.0 ||
      edge.grades.empty()) {
    throw std::invalid_argument("RouteGraph::add_edge: bad edge payload");
  }
  if (!std::all_of(edge.grades.begin(), edge.grades.end(),
                   [](double g) { return std::isfinite(g); })) {
    throw std::invalid_argument("RouteGraph::add_edge: non-finite grade");
  }
  // The stored sample spacing must tile the edge exactly (to fp tolerance):
  // fuel costs integrate with grade_step_m, so an inconsistent step would
  // silently mis-weight every fuel/CO2 cost derived from this edge.
  const double covered =
      edge.grade_step_m * static_cast<double>(edge.grades.size());
  if (std::abs(covered - edge.length_m) >
      1e-6 * std::max(1.0, edge.length_m)) {
    throw std::invalid_argument(
        "RouteGraph::add_edge: grade_step_m * grades.size() != length_m");
  }
  const std::size_t idx = edges_.size();
  adjacency_[edge.from].push_back(idx);
  edges_.push_back(std::move(edge));
  return idx;
}

void RouteGraph::add_bidirectional(const Edge& forward) {
  Edge back;
  back.from = forward.to;
  back.to = forward.from;
  back.length_m = forward.length_m;
  back.grades.resize(forward.grades.size());
  std::transform(forward.grades.rbegin(), forward.grades.rend(),
                 back.grades.begin(), [](double g) { return -g; });
  back.grade_step_m = forward.grade_step_m;
  back.speed_mps = forward.speed_mps;
  back.road_class = forward.road_class;
  add_edge(forward);
  add_edge(std::move(back));
}

RouteGraph make_grid_city(std::size_t rows, std::size_t cols, double block_m,
                          std::uint64_t seed) {
  if (rows < 2 || cols < 2 || block_m <= 0.0) {
    throw std::invalid_argument("make_grid_city: bad dimensions");
  }
  RouteGraph g(rows * cols);
  math::Rng rng = math::Rng(seed).fork("grid-city");

  auto node_id = [cols](std::size_t r, std::size_t c) {
    return r * cols + c;
  };
  // Terrain: a conservative elevation field over the intersections (no
  // free energy from looping). A Gaussian hill sits on the (0, 0) corner
  // with steep flanks (~2-4 degree street grades); the opposite corner is
  // flat. Per-node jitter adds local relief.
  auto hilliness = [&](std::size_t r, std::size_t c) {
    const double fr = static_cast<double>(r) / (rows - 1);
    const double fc = static_cast<double>(c) / (cols - 1);
    return std::exp(-(fr * fr + fc * fc) / 0.25);
  };
  std::vector<double> elevation(rows * cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double h = hilliness(r, c);
      elevation[node_id(r, c)] = 70.0 * h + rng.uniform(-4.0, 4.0) * h;
    }
  }

  const double step = 25.0;
  const auto samples = static_cast<std::size_t>(
      std::max(1.0, std::round(block_m / step)));

  auto add_street = [&](std::size_t r1, std::size_t c1, std::size_t r2,
                        std::size_t c2) {
    const double dz = elevation[node_id(r2, c2)] - elevation[node_id(r1, c1)];
    const double grade = std::asin(std::clamp(dz / block_m, -0.12, 0.12));
    Edge e;
    e.from = node_id(r1, c1);
    e.to = node_id(r2, c2);
    e.length_m = block_m;
    e.grade_step_m = block_m / static_cast<double>(samples);
    e.grades.assign(samples, grade);
    g.add_bidirectional(e);
  };

  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) add_street(r, c, r, c + 1);
      if (r + 1 < rows) add_street(r, c, r + 1, c);
    }
  }
  return g;
}

}  // namespace rge::planning

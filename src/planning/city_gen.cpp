#include "planning/city_gen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "math/rng.hpp"

namespace rge::planning {

namespace {

/// Street class of a grid line: every `every`-th line is an arterial, the
/// line halfway between two arterials a collector, the rest residential.
road::RoadClass line_class(std::size_t line, std::size_t every) {
  if (every == 0) return road::RoadClass::kResidential;
  if (line % every == 0) return road::RoadClass::kArterial;
  if (line % every == every / 2 && every >= 4) {
    return road::RoadClass::kCollector;
  }
  return road::RoadClass::kResidential;
}

double class_speed(road::RoadClass cls, double art, double col, double res) {
  switch (cls) {
    case road::RoadClass::kArterial: return art;
    case road::RoadClass::kCollector: return col;
    case road::RoadClass::kResidential: return res;
  }
  return res;
}

}  // namespace

RouteGraph make_osm_city(const OsmCityConfig& cfg) {
  if (cfg.rows < 2 || cfg.cols < 2 || cfg.block_m <= 0.0) {
    throw std::invalid_argument("make_osm_city: bad dimensions");
  }
  math::Rng rng = math::Rng(cfg.seed).fork("osm-city");

  // Jittered grid-line positions: every street on one line shares its
  // spacing, but no two lines are alike — like a real city extract.
  const double j = std::clamp(cfg.block_jitter, 0.0, 0.9);
  std::vector<double> col_x(cfg.cols, 0.0);
  std::vector<double> row_y(cfg.rows, 0.0);
  for (std::size_t c = 1; c < cfg.cols; ++c) {
    col_x[c] = col_x[c - 1] + cfg.block_m * (1.0 + j * rng.uniform(-1.0, 1.0));
  }
  for (std::size_t r = 1; r < cfg.rows; ++r) {
    row_y[r] = row_y[r - 1] + cfg.block_m * (1.0 + j * rng.uniform(-1.0, 1.0));
  }
  const double extent =
      std::max(col_x.back(), row_y.back());

  // Conservative elevation field: a few seeded Gaussian hills. Streets get
  // their grade from endpoint elevations, so no cycle gains energy.
  struct Hill {
    double cx, cy, height, sigma;
  };
  std::vector<Hill> hills;
  for (std::size_t h = 0; h < cfg.hill_count; ++h) {
    Hill hill;
    hill.cx = rng.uniform(0.0, 1.0) * col_x.back();
    hill.cy = rng.uniform(0.0, 1.0) * row_y.back();
    hill.height = cfg.hill_height_m * rng.uniform(0.5, 1.2);
    hill.sigma = extent * rng.uniform(0.12, 0.22);
    hills.push_back(hill);
  }
  auto node_id = [&](std::size_t r, std::size_t c) { return r * cfg.cols + c; };
  std::vector<double> elevation(cfg.rows * cfg.cols, 0.0);
  for (std::size_t r = 0; r < cfg.rows; ++r) {
    for (std::size_t c = 0; c < cfg.cols; ++c) {
      double z = 0.0;
      for (const Hill& h : hills) {
        const double dx = col_x[c] - h.cx;
        const double dy = row_y[r] - h.cy;
        z += h.height *
             std::exp(-(dx * dx + dy * dy) / (2.0 * h.sigma * h.sigma));
      }
      elevation[node_id(r, c)] = z;
    }
  }

  RouteGraph g(cfg.rows * cfg.cols);
  const double step_target = 25.0;
  auto add_street = [&](std::size_t n1, std::size_t n2, double length,
                        road::RoadClass cls) {
    const double dz = elevation[n2] - elevation[n1];
    const double grade = std::asin(std::clamp(dz / length, -0.15, 0.15));
    Edge e;
    e.from = n1;
    e.to = n2;
    e.length_m = length;
    const auto samples = static_cast<std::size_t>(
        std::max(1.0, std::round(length / step_target)));
    e.grade_step_m = length / static_cast<double>(samples);
    e.grades.assign(samples, grade);
    e.road_class = cls;
    e.speed_mps = class_speed(cls, cfg.arterial_speed_mps,
                              cfg.collector_speed_mps,
                              cfg.residential_speed_mps);
    g.add_bidirectional(e);
  };

  for (std::size_t r = 0; r < cfg.rows; ++r) {
    for (std::size_t c = 0; c < cfg.cols; ++c) {
      if (c + 1 < cfg.cols) {
        add_street(node_id(r, c), node_id(r, c + 1), col_x[c + 1] - col_x[c],
                   line_class(r, cfg.arterial_every));
      }
      if (r + 1 < cfg.rows) {
        add_street(node_id(r, c), node_id(r + 1, c), row_y[r + 1] - row_y[r],
                   line_class(c, cfg.arterial_every));
      }
    }
  }

  // Diagonal shortcuts across a seeded fraction of blocks (collectors).
  for (std::size_t r = 0; r + 1 < cfg.rows; ++r) {
    for (std::size_t c = 0; c + 1 < cfg.cols; ++c) {
      if (!rng.bernoulli(cfg.diagonal_per_block)) continue;
      const double dx = col_x[c + 1] - col_x[c];
      const double dy = row_y[r + 1] - row_y[r];
      const double length = std::hypot(dx, dy);
      const bool down_right = rng.bernoulli(0.5);
      const std::size_t n1 = down_right ? node_id(r, c) : node_id(r, c + 1);
      const std::size_t n2 =
          down_right ? node_id(r + 1, c + 1) : node_id(r + 1, c);
      add_street(n1, n2, length, road::RoadClass::kCollector);
    }
  }
  return g;
}

RouteGraph build_network_graph(
    const road::RoadNetwork& net,
    const std::vector<std::vector<double>>& grade_profiles,
    double profile_step_m, const NetworkGraphOptions& opt) {
  if (net.size() == 0) {
    throw std::invalid_argument("build_network_graph: empty network");
  }
  if (grade_profiles.size() != net.size()) {
    throw std::invalid_argument(
        "build_network_graph: one grade profile per road required");
  }
  if (profile_step_m <= 0.0 || opt.target_edge_m <= 0.0 ||
      opt.grade_step_m <= 0.0) {
    throw std::invalid_argument("build_network_graph: bad step sizes");
  }
  for (std::size_t i = 0; i < net.size(); ++i) {
    const double covered =
        static_cast<double>(grade_profiles[i].size() - 1) * profile_step_m;
    if (grade_profiles[i].size() < 2 ||
        covered + profile_step_m < net.roads()[i].road.length_m()) {
      throw std::invalid_argument(
          "build_network_graph: profile for road " + std::to_string(i) +
          " does not cover the road");
    }
  }

  // Edges per road, then the node budget: J junctions + internal chains.
  std::size_t junctions =
      opt.junctions != 0 ? opt.junctions : std::max<std::size_t>(4, net.size() / 2);
  junctions = std::max<std::size_t>(2, std::min(junctions, net.size() + 1));
  std::vector<std::size_t> segments(net.size());
  std::size_t node_count = junctions;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const double len = net.roads()[i].road.length_m();
    segments[i] = static_cast<std::size_t>(
        std::max(1.0, std::round(len / opt.target_edge_m)));
    node_count += segments[i] - 1;
  }

  RouteGraph g(node_count);
  math::Rng rng = math::Rng(opt.seed).fork("network-graph");
  std::size_t next_internal = junctions;

  for (std::size_t i = 0; i < net.size(); ++i) {
    const road::Road& road_i = net.roads()[i].road;
    const auto& profile = grade_profiles[i];
    const double len = road_i.length_m();

    // Junction endpoints: ring over the first J roads (connectivity),
    // seeded chords for the rest.
    std::size_t a;
    std::size_t b;
    if (i < junctions) {
      a = i % junctions;
      b = (i + 1) % junctions;
    } else {
      a = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(junctions) - 1));
      const auto d = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(junctions) - 1));
      b = (a + d) % junctions;
    }

    auto grade_at = [&](double s) {
      const double x = std::clamp(s / profile_step_m, 0.0,
                                  static_cast<double>(profile.size() - 1));
      const auto i0 = static_cast<std::size_t>(
          std::min(x, static_cast<double>(profile.size() - 2)));
      const double frac = x - static_cast<double>(i0);
      return profile[i0] + frac * (profile[i0 + 1] - profile[i0]);
    };
    const double speed =
        class_speed(net.roads()[i].road_class, opt.arterial_speed_mps,
                    opt.collector_speed_mps, opt.residential_speed_mps);

    std::size_t prev = a;
    for (std::size_t k = 0; k < segments[i]; ++k) {
      const double s0 = len * static_cast<double>(k) /
                        static_cast<double>(segments[i]);
      const double s1 = len * static_cast<double>(k + 1) /
                        static_cast<double>(segments[i]);
      const std::size_t next =
          (k + 1 == segments[i]) ? b : next_internal++;
      Edge e;
      e.from = prev;
      e.to = next;
      e.length_m = s1 - s0;
      const auto samples = static_cast<std::size_t>(
          std::max(1.0, std::round(e.length_m / opt.grade_step_m)));
      e.grade_step_m = e.length_m / static_cast<double>(samples);
      e.grades.resize(samples);
      for (std::size_t si = 0; si < samples; ++si) {
        e.grades[si] =
            grade_at(s0 + (static_cast<double>(si) + 0.5) * e.grade_step_m);
      }
      e.speed_mps = speed;
      e.road_class = net.roads()[i].road_class;
      g.add_bidirectional(e);
      prev = next;
    }
  }
  return g;
}

}  // namespace rge::planning

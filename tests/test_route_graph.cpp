// Unit tests for the routing graph builder, and for the gradient-aware
// edge costs and Dijkstra of the routing oracle.
#include "planning/route_graph.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "math/angles.hpp"
#include "oracles/dijkstra.hpp"
#include "planning/city_gen.hpp"

namespace rge::planning {
namespace {

using math::deg2rad;
using oracles::edge_cost_distance;
using oracles::edge_cost_fuel;
using oracles::edge_cost_time;
using oracles::shortest_path;

Edge make_edge(std::size_t from, std::size_t to, double length,
               double grade = 0.0) {
  Edge e;
  e.from = from;
  e.to = to;
  e.length_m = length;
  e.grade_step_m = 25.0;
  e.grades.assign(static_cast<std::size_t>(length / 25.0), grade);
  if (e.grades.empty()) e.grades.push_back(grade);
  return e;
}

TEST(RouteGraph, AddEdgeValidation) {
  RouteGraph g(3);
  EXPECT_THROW(g.add_edge(make_edge(0, 5, 100.0)), std::invalid_argument);
  Edge bad = make_edge(0, 1, 100.0);
  bad.length_m = 0.0;
  EXPECT_THROW(g.add_edge(bad), std::invalid_argument);
  bad = make_edge(0, 1, 100.0);
  bad.grades.clear();
  EXPECT_THROW(g.add_edge(bad), std::invalid_argument);
  EXPECT_EQ(g.add_edge(make_edge(0, 1, 100.0)), 0u);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(RouteGraph, AddEdgeRejectsNonFinitePayload) {
  // Every comparison with NaN is false and inf > inf is false, so none of
  // these trip a plain `<= 0` or tiling-tolerance check.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto expect_rejected = [](const auto& mutate) {
    RouteGraph g(2);
    Edge e = make_edge(0, 1, 100.0);
    mutate(e);
    EXPECT_THROW(g.add_edge(e), std::invalid_argument);
    EXPECT_THROW(g.add_bidirectional(e), std::invalid_argument);
    EXPECT_EQ(g.edge_count(), 0u);
  };
  expect_rejected([&](Edge& e) { e.length_m = kNan; });
  expect_rejected([&](Edge& e) { e.length_m = kInf; });
  expect_rejected([&](Edge& e) { e.grade_step_m = kNan; });
  expect_rejected([&](Edge& e) { e.length_m = e.grade_step_m = kInf; });
  for (const double sample : {kNan, kInf, -kInf}) {
    SCOPED_TRACE(sample);
    expect_rejected([&](Edge& e) { e.grades[1] = sample; });
  }
}

TEST(RouteGraph, BidirectionalMirrorsGrades) {
  RouteGraph g(2);
  g.add_bidirectional(make_edge(0, 1, 100.0, deg2rad(3.0)));
  ASSERT_EQ(g.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(g.edge(0).grades.front(), deg2rad(3.0));
  EXPECT_DOUBLE_EQ(g.edge(1).grades.front(), -deg2rad(3.0));
  EXPECT_EQ(g.edge(1).from, 1u);
  EXPECT_EQ(g.edge(1).to, 0u);
}

TEST(RouteGraph, ShortestPathByDistance) {
  // 0 --100-- 1 --100-- 2 and a 150 m direct edge 0-2.
  RouteGraph g(3);
  g.add_edge(make_edge(0, 1, 100.0));
  g.add_edge(make_edge(1, 2, 100.0));
  g.add_edge(make_edge(0, 2, 150.0));
  const auto route = shortest_path(g, 0, 2, edge_cost_distance);
  ASSERT_TRUE(route.found);
  EXPECT_DOUBLE_EQ(route.cost, 150.0);
  EXPECT_EQ(route.edges.size(), 1u);
  EXPECT_EQ(route.nodes.front(), 0u);
  EXPECT_EQ(route.nodes.back(), 2u);
}

TEST(RouteGraph, UnreachableReturnsNotFound) {
  RouteGraph g(3);
  g.add_edge(make_edge(0, 1, 100.0));
  const auto route = shortest_path(g, 0, 2, edge_cost_distance);
  EXPECT_FALSE(route.found);
  EXPECT_THROW(shortest_path(g, 0, 9, edge_cost_distance),
               std::invalid_argument);
}

TEST(RouteGraph, FuelCostPrefersFlatDetour) {
  // Short steep climb vs longer flat detour between 0 and 3.
  RouteGraph g(4);
  g.add_edge(make_edge(0, 3, 1000.0, deg2rad(5.0)));  // over the hill
  g.add_edge(make_edge(0, 1, 600.0));
  g.add_edge(make_edge(1, 2, 600.0));
  g.add_edge(make_edge(2, 3, 600.0));  // 1.8 km flat
  const double v = 11.1;
  const auto by_dist = shortest_path(g, 0, 3, edge_cost_distance);
  const auto by_fuel = shortest_path(
      g, 0, 3, [v](const Edge& e) { return edge_cost_fuel(e, v); });
  ASSERT_TRUE(by_dist.found);
  ASSERT_TRUE(by_fuel.found);
  EXPECT_EQ(by_dist.edges.size(), 1u);   // the hill is shorter
  EXPECT_EQ(by_fuel.edges.size(), 3u);   // but the detour is cheaper
  EXPECT_GT(by_fuel.length_m, by_dist.length_m);
}

TEST(RouteGraph, EdgeCostHelpers) {
  const Edge e = make_edge(0, 1, 1000.0, deg2rad(2.0));
  EXPECT_DOUBLE_EQ(edge_cost_distance(e), 1000.0);
  EXPECT_NEAR(edge_cost_time(e, 10.0), 100.0, 1e-12);
  EXPECT_THROW(edge_cost_time(e, 0.0), std::invalid_argument);
  const double fuel_up = edge_cost_fuel(e, 10.0);
  const Edge flat = make_edge(0, 1, 1000.0, 0.0);
  EXPECT_GT(fuel_up, edge_cost_fuel(flat, 10.0));
  EXPECT_THROW(edge_cost_fuel(e, -1.0), std::invalid_argument);
}

TEST(RouteGraph, AddEdgeRejectsInconsistentGradeStep) {
  RouteGraph g(2);
  // 4 samples * 25 m = 100 m: consistent.
  Edge ok = make_edge(0, 1, 100.0);
  ASSERT_EQ(ok.grades.size(), 4u);
  EXPECT_NO_THROW(g.add_edge(ok));
  // Same samples but a lying step: 4 * 10 m != 100 m.
  Edge bad = make_edge(0, 1, 100.0);
  bad.grade_step_m = 10.0;
  EXPECT_THROW(g.add_edge(bad), std::invalid_argument);
  // Dropping a sample without fixing the step is equally inconsistent.
  bad = make_edge(0, 1, 100.0);
  bad.grades.pop_back();
  EXPECT_THROW(g.add_edge(bad), std::invalid_argument);
  // Non-default steps are fine when they cover the length exactly.
  Edge fine = make_edge(0, 1, 100.0);
  fine.grade_step_m = 12.5;
  fine.grades.assign(8, 0.01);
  EXPECT_NO_THROW(g.add_edge(fine));
}

TEST(RouteGraph, FuelCostUsesStoredGradeStep) {
  // Regression: edge_cost_fuel used to re-derive the step as
  // length / grades.size(), silently ignoring grade_step_m. With a
  // non-default (but consistent) step the integration time per sample
  // must come from the stored step.
  Edge e;
  e.from = 0;
  e.to = 1;
  e.length_m = 100.0;
  e.grade_step_m = 12.5;
  e.grades.assign(8, deg2rad(3.0));
  const double v = 12.0;
  const double got = edge_cost_fuel(e, v);
  double manual = 0.0;
  for (const double g : e.grades) {
    manual += emissions::fuel_used_gal(v, 0.0, g, e.grade_step_m / v,
                                       emissions::VspParams{});
  }
  EXPECT_EQ(got, manual);
  // And the cost is invariant to how the same physical profile is sampled
  // only through the dt = step/speed scaling, so halving the step while
  // doubling the sample count keeps the total integration time equal.
  Edge finer = e;
  finer.grade_step_m = 6.25;
  finer.grades.assign(16, deg2rad(3.0));
  EXPECT_NEAR(edge_cost_fuel(finer, v), got, 1e-15);
}

TEST(RouteGraph, ShortestPathTieBreaksByLowerEdgeIndex) {
  // Diamond with two bitwise-equal-cost paths; the lower-indexed edges
  // must win regardless of heap pop order.
  RouteGraph g(4);
  g.add_edge(make_edge(0, 1, 100.0));  // e0
  g.add_edge(make_edge(0, 2, 100.0));  // e1
  g.add_edge(make_edge(1, 3, 100.0));  // e2
  g.add_edge(make_edge(2, 3, 100.0));  // e3
  const auto route = shortest_path(g, 0, 3, edge_cost_distance);
  ASSERT_TRUE(route.found);
  EXPECT_EQ(route.edges, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(route.nodes, (std::vector<std::size_t>{0, 1, 3}));

  // Mirror diamond with the cheap branch added last: edge index, not
  // insertion order of the *nodes*, decides.
  RouteGraph h(4);
  h.add_edge(make_edge(0, 2, 100.0));  // e0
  h.add_edge(make_edge(2, 3, 100.0));  // e1
  h.add_edge(make_edge(0, 1, 100.0));  // e2
  h.add_edge(make_edge(1, 3, 100.0));  // e3
  const auto route2 = shortest_path(h, 0, 3, edge_cost_distance);
  ASSERT_TRUE(route2.found);
  EXPECT_EQ(route2.edges, (std::vector<std::size_t>{0, 1}));
}

// FNV-1a over every edge's topology and gradient bits: any change to the
// generator's sampling order or arithmetic shows up as a hash change.
std::uint64_t edge_list_fingerprint(const RouteGraph& g) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  auto mix_double = [&](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  for (std::size_t ei = 0; ei < g.edge_count(); ++ei) {
    const Edge& e = g.edge(ei);
    mix(e.from);
    mix(e.to);
    mix_double(e.length_m);
    mix_double(e.grade_step_m);
    for (const double gr : e.grades) mix_double(gr);
  }
  return h;
}

TEST(GridCity, GoldenEdgeListFingerprint) {
  // Golden pin of the seeded generator. If this fails you changed the
  // city generator's output — deliberate changes must update the constant
  // (and expect every committed routing baseline to move with it).
  const RouteGraph g = make_grid_city(6, 6, 250.0, 3);
  EXPECT_EQ(edge_list_fingerprint(g), 3648188215861477139ULL);
  // And the fingerprint is actually sensitive: another seed differs.
  EXPECT_NE(edge_list_fingerprint(make_grid_city(6, 6, 250.0, 4)),
            3648188215861477139ULL);
}

TEST(GridCity, EveryEdgeHasAMirrorWithNegatedGrades) {
  const RouteGraph g = make_grid_city(5, 6, 220.0, 12);
  for (std::size_t ei = 0; ei < g.edge_count(); ++ei) {
    const Edge& e = g.edge(ei);
    // add_bidirectional emits forward/reverse adjacently.
    const std::size_t mi = (ei % 2 == 0) ? ei + 1 : ei - 1;
    const Edge& m = g.edge(mi);
    ASSERT_EQ(m.from, e.to);
    ASSERT_EQ(m.to, e.from);
    EXPECT_EQ(m.length_m, e.length_m);
    ASSERT_EQ(m.grades.size(), e.grades.size());
    for (std::size_t k = 0; k < e.grades.size(); ++k) {
      EXPECT_EQ(m.grades[k], -e.grades[e.grades.size() - 1 - k])
          << "edge " << ei << " sample " << k;
    }
  }
}

TEST(GridCity, FuelCostsAreStrictlyPositiveOnEveryEdge) {
  // The VSP idle floor keeps downhill fuel positive, so no cycle can have
  // negative fuel cost and Dijkstra's nonnegativity precondition holds for
  // every metric (this is also what the CSR freeze validates).
  const RouteGraph g = make_grid_city(6, 6, 250.0, 3);
  const double v = 40.0 / 3.6;
  for (std::size_t ei = 0; ei < g.edge_count(); ++ei) {
    EXPECT_GT(edge_cost_fuel(g.edge(ei), v), 0.0) << "edge " << ei;
  }
}

TEST(OsmCity, StructureDeterminismAndScale) {
  OsmCityConfig cfg;  // 52x52 defaults
  const RouteGraph g = make_osm_city(cfg);
  EXPECT_EQ(g.node_count(), cfg.rows * cfg.cols);
  EXPECT_GE(g.edge_count(), 10000u) << "tentpole floor: 10k+ directed edges";
  const RouteGraph h = make_osm_city(cfg);
  EXPECT_EQ(edge_list_fingerprint(g), edge_list_fingerprint(h));
  OsmCityConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_NE(edge_list_fingerprint(g),
            edge_list_fingerprint(make_osm_city(other)));
}

TEST(OsmCity, ClassesSpeedsAndStepsAreWellFormed) {
  OsmCityConfig cfg;
  cfg.rows = 13;
  cfg.cols = 13;
  const RouteGraph g = make_osm_city(cfg);
  bool saw_arterial = false;
  bool saw_residential = false;
  for (std::size_t ei = 0; ei < g.edge_count(); ++ei) {
    const Edge& e = g.edge(ei);
    ASSERT_GT(e.speed_mps, 0.0);
    const double covered =
        e.grade_step_m * static_cast<double>(e.grades.size());
    EXPECT_NEAR(covered, e.length_m, 1e-6 * e.length_m);
    saw_arterial |= e.road_class == road::RoadClass::kArterial;
    saw_residential |= e.road_class == road::RoadClass::kResidential;
  }
  EXPECT_TRUE(saw_arterial);
  EXPECT_TRUE(saw_residential);
}

TEST(OsmCity, ConnectedFromCornerSample) {
  OsmCityConfig cfg;
  cfg.rows = 9;
  cfg.cols = 9;
  const RouteGraph g = make_osm_city(cfg);
  for (std::size_t n = 0; n < g.node_count(); n += 7) {
    EXPECT_TRUE(shortest_path(g, 0, n, edge_cost_distance).found)
        << "node " << n;
  }
}

TEST(GridCity, StructureAndDeterminism) {
  EXPECT_THROW(make_grid_city(1, 5, 200.0, 1), std::invalid_argument);
  const RouteGraph a = make_grid_city(4, 5, 200.0, 9);
  EXPECT_EQ(a.node_count(), 20u);
  // Streets: horizontal 4*(5-1)=16, vertical (4-1)*5=15, both directions.
  EXPECT_EQ(a.edge_count(), 2u * (16u + 15u));
  const RouteGraph b = make_grid_city(4, 5, 200.0, 9);
  EXPECT_DOUBLE_EQ(a.edge(7).grades.front(), b.edge(7).grades.front());
}

TEST(GridCity, TerrainIsConservativeAndHasASlope) {
  const std::size_t rows = 6;
  const std::size_t cols = 6;
  const RouteGraph g = make_grid_city(rows, cols, 250.0, 3);
  // Conservative field: any cycle's signed elevation change sums to ~0.
  // Walk the perimeter of the first block: (0,0)->(0,1)->(1,1)->(1,0)->(0,0).
  auto grade_of = [&](std::size_t from, std::size_t to) {
    for (std::size_t ei = 0; ei < g.edge_count(); ++ei) {
      const Edge& e = g.edge(ei);
      if (e.from == from && e.to == to) return e.grades.front();
    }
    ADD_FAILURE() << "edge " << from << "->" << to << " missing";
    return 0.0;
  };
  const double loop = std::sin(grade_of(0, 1)) + std::sin(grade_of(1, 1 + cols)) +
                      std::sin(grade_of(1 + cols, cols)) +
                      std::sin(grade_of(cols, 0));
  EXPECT_NEAR(loop * 250.0, 0.0, 1e-9);  // metres gained around the loop

  // The slope between the hilly corner and the flat corner produces real
  // grades somewhere, while the flat quadrant stays gentle.
  double max_grade = 0.0;
  double flat_quadrant = 0.0;
  int flat_n = 0;
  for (std::size_t ei = 0; ei < g.edge_count(); ++ei) {
    const Edge& e = g.edge(ei);
    max_grade = std::max(max_grade, std::abs(e.grades.front()));
    const std::size_t r = e.from / cols;
    const std::size_t c = e.from % cols;
    if (r >= rows - 2 && c >= cols - 2) {
      flat_quadrant += std::abs(e.grades.front());
      ++flat_n;
    }
  }
  ASSERT_GT(flat_n, 0);
  EXPECT_GT(max_grade, deg2rad(1.5));
  EXPECT_LT(flat_quadrant / flat_n, 0.5 * max_grade);
}

TEST(GridCity, AllNodesConnected) {
  const RouteGraph g = make_grid_city(5, 5, 200.0, 4);
  for (std::size_t n = 1; n < g.node_count(); ++n) {
    EXPECT_TRUE(shortest_path(g, 0, n, edge_cost_distance).found)
        << "node " << n;
  }
}

TEST(RouteGraph, ManhattanDistanceOnGrid) {
  const RouteGraph g = make_grid_city(4, 4, 300.0, 5);
  // Corner to corner: (rows-1 + cols-1) blocks.
  const auto route = shortest_path(g, 0, 15, edge_cost_distance);
  ASSERT_TRUE(route.found);
  EXPECT_NEAR(route.cost, 6.0 * 300.0, 1e-9);
}

}  // namespace
}  // namespace rge::planning

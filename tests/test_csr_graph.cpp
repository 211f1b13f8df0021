// Unit tests for the frozen CSR routing graph and the ALT query layer:
// cost-table exactness vs the pluggable cost functions, bit-identical
// cost/path parity between plain Dijkstra, ALT, and the std::function
// Dijkstra oracle, deterministic tie-breaking, potential
// admissibility, exact and golden landmark tables (on OSM grids and on
// chain-heavy road networks, where most landmark-sweep nodes are chain
// interiors walked instead of heaped), the freeze's sweep and chain-node
// counts and obs spans, landmark layers shared between live graphs of
// equal input, and thread-safety of concurrent queries over one shared
// graph and of concurrent freezes racing on the layer registry (the
// CsrGraphConcurrency suite runs under the tsan-runtime preset).
#include "planning/csr_graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "emissions/emissions.hpp"
#include "math/angles.hpp"
#include "math/rng.hpp"
#include "obs/obs.hpp"
#include "oracles/dijkstra.hpp"
#include "planning/city_gen.hpp"
#include "road/network.hpp"
#include "runtime/thread_pool.hpp"
#include "testing/network_survey.hpp"

namespace rge::planning {
namespace {

using math::deg2rad;
using oracles::edge_cost_distance;
using oracles::edge_cost_fuel;
using oracles::edge_cost_time;
using oracles::metric_cost;
using oracles::shortest_path;

Edge make_edge(std::size_t from, std::size_t to, double length,
               double grade = 0.0) {
  Edge e;
  e.from = from;
  e.to = to;
  e.length_m = length;
  const auto samples =
      static_cast<std::size_t>(std::max(1.0, std::round(length / 25.0)));
  e.grade_step_m = length / static_cast<double>(samples);
  e.grades.assign(samples, grade);
  return e;
}

constexpr Metric kAllMetrics[] = {Metric::kDistance, Metric::kTime,
                                  Metric::kFuel, Metric::kCo2};

void expect_identical(const RouteGraph::Route& a, const RouteGraph::Route& b,
                      const char* what) {
  ASSERT_EQ(a.found, b.found) << what;
  if (!a.found) return;
  // Bit-identical cost, identical (not merely equal-cost) path.
  EXPECT_EQ(a.cost, b.cost) << what;
  EXPECT_EQ(a.nodes, b.nodes) << what;
  EXPECT_EQ(a.edges, b.edges) << what;
  EXPECT_DOUBLE_EQ(a.length_m, b.length_m) << what;
}

TEST(CsrGraph, CostTablesMatchCostFunctionsBitExactly) {
  const RouteGraph g = make_grid_city(6, 7, 200.0, 11);
  const CostModel model;
  const CsrGraph csr(g, model);
  ASSERT_EQ(csr.node_count(), g.node_count());
  ASSERT_EQ(csr.edge_count(), g.edge_count());
  for (std::size_t ei = 0; ei < g.edge_count(); ++ei) {
    const Edge& e = g.edge(ei);
    EXPECT_EQ(csr.edge_cost(Metric::kDistance, ei), edge_cost_distance(e));
    EXPECT_EQ(csr.edge_cost(Metric::kTime, ei),
              edge_cost_time(e, model.default_speed_mps));
    EXPECT_EQ(csr.edge_cost(Metric::kFuel, ei),
              edge_cost_fuel(e, model.default_speed_mps, model.vsp));
    EXPECT_EQ(csr.edge_cost(Metric::kCo2, ei),
              edge_cost_fuel(e, model.default_speed_mps, model.vsp) *
                  model.co2_g_per_gal);
  }
  EXPECT_THROW(csr.edge_cost(Metric::kFuel, g.edge_count()),
               std::invalid_argument);
}

TEST(CsrGraph, PerEdgeSpeedsFeedTimeAndFuelTables) {
  OsmCityConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  const RouteGraph g = make_osm_city(cfg);
  const CostModel model;
  const CsrGraph csr(g, model);
  for (std::size_t ei = 0; ei < g.edge_count(); ei += 17) {
    const Edge& e = g.edge(ei);
    ASSERT_GT(e.speed_mps, 0.0);
    EXPECT_EQ(csr.edge_cost(Metric::kTime, ei),
              edge_cost_time(e, e.speed_mps));
    EXPECT_EQ(csr.edge_cost(Metric::kFuel, ei),
              edge_cost_fuel(e, e.speed_mps, model.vsp));
  }
}

TEST(CsrGraph, MatchesLegacyShortestPathOnGridCity) {
  const RouteGraph g = make_grid_city(7, 7, 240.0, 3);
  const CostModel model;
  const CsrGraph csr(g, model);
  QueryContext ctx;
  math::Rng rng(77);
  for (int it = 0; it < 40; ++it) {
    const auto from = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
    const auto to = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
    for (const Metric m : kAllMetrics) {
      const auto legacy = shortest_path(g, from, to, metric_cost(m, model));
      const auto dij = csr.route(from, to, m, ctx, /*use_alt=*/false);
      const auto alt = csr.route(from, to, m, ctx, /*use_alt=*/true);
      expect_identical(legacy, dij, metric_name(m));
      expect_identical(dij, alt, metric_name(m));
    }
  }
}

TEST(CsrGraph, DeterministicTieBreakPrefersLowerEdgeIndex) {
  // Diamond: two bitwise-equal-cost paths 0-1-3 (edges 0,2) and 0-2-3
  // (edges 1,3). The canonical route must take the lower-indexed edges.
  RouteGraph g(4);
  g.add_edge(make_edge(0, 1, 100.0));  // e0
  g.add_edge(make_edge(0, 2, 100.0));  // e1
  g.add_edge(make_edge(1, 3, 100.0));  // e2
  g.add_edge(make_edge(2, 3, 100.0));  // e3
  const CsrGraph csr(g);
  QueryContext ctx;
  for (const Metric m : kAllMetrics) {
    const auto legacy = shortest_path(g, 0, 3, metric_cost(m, CostModel{}));
    const auto dij = csr.route(0, 3, m, ctx, false);
    const auto alt = csr.route(0, 3, m, ctx, true);
    ASSERT_TRUE(alt.found);
    EXPECT_EQ(alt.edges, (std::vector<std::size_t>{0, 2})) << metric_name(m);
    expect_identical(legacy, dij, metric_name(m));
    expect_identical(dij, alt, metric_name(m));
  }
}

TEST(CsrGraph, ManyEqualPathsStillDeterministic) {
  // A flat equal-block grid is a worst case: every monotone staircase
  // between opposite corners has bitwise-identical distance cost.
  const RouteGraph g = make_grid_city(5, 5, 300.0, 1);
  const CsrGraph csr(g);
  QueryContext ctx;
  const auto legacy =
      shortest_path(g, 2, 22, metric_cost(Metric::kDistance, CostModel{}));
  const auto dij = csr.route(2, 22, Metric::kDistance, ctx, false);
  const auto alt = csr.route(2, 22, Metric::kDistance, ctx, true);
  expect_identical(legacy, dij, "distance");
  expect_identical(dij, alt, "distance");
}

TEST(CsrGraph, PotentialsAreAdmissibleAndZeroAtTarget) {
  OsmCityConfig cfg;
  cfg.rows = 10;
  cfg.cols = 10;
  const RouteGraph g = make_osm_city(cfg);
  const CsrGraph csr(g);
  QueryContext ctx;
  math::Rng rng(5);
  for (int it = 0; it < 25; ++it) {
    const auto u = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
    const auto t = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
    for (const Metric m : kAllMetrics) {
      EXPECT_EQ(csr.potential(m, t, t), 0.0);
      const auto r = csr.route(u, t, m, ctx, false);
      ASSERT_TRUE(r.found);
      // Admissible to within the ulp-slack the query bound absorbs.
      EXPECT_LE(csr.potential(m, u, t), r.cost * (1.0 + 1e-12))
          << metric_name(m);
    }
  }
}

TEST(CsrGraph, AltPrunesTheSearchOnLongFuelQueries) {
  OsmCityConfig cfg;
  cfg.rows = 20;
  cfg.cols = 20;
  const RouteGraph g = make_osm_city(cfg);
  const CsrGraph csr(g);
  QueryContext ctx;
  const std::size_t from = 0;
  const std::size_t to = g.node_count() - 1;
  (void)csr.route(from, to, Metric::kFuel, ctx, false);
  const std::size_t settled_dij = ctx.stats().settled;
  (void)csr.route(from, to, Metric::kFuel, ctx, true);
  const std::size_t settled_alt = ctx.stats().settled;
  EXPECT_LT(settled_alt, settled_dij / 2)
      << "ALT should settle far fewer nodes than Dijkstra";
}

TEST(CsrGraph, UnreachableAndTrivialQueries) {
  RouteGraph g(3);
  g.add_edge(make_edge(0, 1, 100.0));
  const CsrGraph csr(g);
  QueryContext ctx;
  for (const bool use_alt : {false, true}) {
    const auto none = csr.route(0, 2, Metric::kDistance, ctx, use_alt);
    EXPECT_FALSE(none.found);
    const auto self = csr.route(1, 1, Metric::kFuel, ctx, use_alt);
    ASSERT_TRUE(self.found);
    EXPECT_EQ(self.cost, 0.0);
    EXPECT_TRUE(self.edges.empty());
    EXPECT_EQ(self.nodes, (std::vector<std::size_t>{1}));
  }
  EXPECT_THROW(csr.route(0, 9, Metric::kDistance, ctx), std::invalid_argument);
}

TEST(CsrGraph, ZeroLandmarksDegradesToDijkstra) {
  const RouteGraph g = make_grid_city(5, 5, 200.0, 8);
  AltConfig alt;
  alt.landmarks = 0;
  const CsrGraph csr(g, CostModel{}, alt);
  EXPECT_EQ(csr.landmark_count(), 0u);
  QueryContext ctx;
  const auto r = csr.route(0, 24, Metric::kFuel, ctx, true);
  const auto legacy =
      shortest_path(g, 0, 24, metric_cost(Metric::kFuel, CostModel{}));
  expect_identical(legacy, r, "fuel");
}

TEST(CsrGraph, ContextReuseAcrossQueriesAndMetricsIsClean) {
  const RouteGraph g = make_grid_city(6, 6, 250.0, 2);
  const CsrGraph csr(g);
  QueryContext reused;
  math::Rng rng(9);
  for (int it = 0; it < 60; ++it) {
    const auto from = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
    const auto to = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
    const Metric m = kAllMetrics[it % 4];
    QueryContext fresh;
    expect_identical(csr.route(from, to, m, fresh, true),
                     csr.route(from, to, m, reused, true), "context reuse");
  }
}

TEST(CsrGraph, RejectsEmptyGraphAndReportsBuildStats) {
  EXPECT_THROW(CsrGraph(RouteGraph(0)), std::invalid_argument);
  const RouteGraph g = make_grid_city(4, 4, 200.0, 6);
  const CsrGraph csr(g);
  EXPECT_GE(csr.build_stats().cost_tables_ms, 0.0);
  EXPECT_GE(csr.build_stats().landmarks_ms, 0.0);
  EXPECT_EQ(csr.landmark_count(), 8u);
  for (const Metric m : kAllMetrics) {
    EXPECT_EQ(csr.landmarks(m).size(), csr.landmark_count());
  }
}

TEST(CsrGraph, ReportsOneSweepPerSelectionAndTableRow) {
  // Per metric: one seed sweep from node 0, then one forward sweep per
  // landmark (which doubles as its d(L, .) row) and one reverse sweep.
  const RouteGraph g = make_grid_city(4, 4, 200.0, 6);
  const CsrGraph csr(g);
  ASSERT_EQ(csr.landmark_count(), 8u);
  EXPECT_EQ(csr.build_stats().landmark_sweeps, 4u * (1u + 2u * 8u));

  AltConfig off;
  off.landmarks = 0;
  EXPECT_EQ(CsrGraph(g, CostModel{}, off).build_stats().landmark_sweeps, 0u);
}

TEST(CsrGraph, SelectionStopsEarlyOnASmallDisconnectedGraph) {
  // Five nodes (fewer than the 8 requested landmarks): a 3-cycle plus a
  // one-way edge the cycle never reaches. Farthest-point selection covers
  // the cycle with 3 landmarks and stops, so only 3 table rows are built.
  RouteGraph g(5);
  g.add_edge(make_edge(0, 1, 100.0));
  g.add_edge(make_edge(1, 2, 100.0));
  g.add_edge(make_edge(2, 0, 100.0));
  g.add_edge(make_edge(3, 4, 100.0));
  const CsrGraph csr(g);
  for (const Metric m : kAllMetrics) {
    EXPECT_EQ(csr.landmarks(m), (std::vector<std::size_t>{2, 1, 0}))
        << metric_name(m);
  }
  EXPECT_EQ(csr.build_stats().landmark_sweeps, 4u * (1u + 2u * 3u));

  QueryContext ctx;
  for (const Metric m : kAllMetrics) {
    for (std::size_t u = 0; u < g.node_count(); ++u) {
      for (std::size_t t = 0; t < g.node_count(); ++t) {
        const auto r = csr.route(u, t, m, ctx, false);
        if (!r.found) continue;
        EXPECT_LE(csr.potential(m, u, t), r.cost * (1.0 + 1e-12))
            << metric_name(m) << " " << u << "->" << t;
        expect_identical(r, csr.route(u, t, m, ctx, true), metric_name(m));
      }
    }
  }
}

TEST(CsrGraph, LandmarkTablesHoldExactShortestPathCosts) {
  // potential(L, t) reads d(L, t) - d(L, L) and potential(t, L) reads
  // d(t, L) - d(L, L), one table entry each; with the admissibility test
  // above, these pin every d(L, .) and d(., L) entry to the exact Dijkstra
  // cost, with no slack. A d(., L) row is a sweep over reversed edges from
  // L, so its sums accumulate from L's end of the path; the matching
  // reference is a forward query from L on the edge-reversed graph (each
  // edge keeps its payload, so its cost in every metric is unchanged).
  OsmCityConfig cfg;
  cfg.rows = 10;
  cfg.cols = 10;
  const RouteGraph g = make_osm_city(cfg);
  RouteGraph reversed(g.node_count());
  for (std::size_t ei = 0; ei < g.edge_count(); ++ei) {
    Edge e = g.edge(ei);
    std::swap(e.from, e.to);
    reversed.add_edge(std::move(e));
  }
  const CsrGraph csr(g);
  const CsrGraph rev(reversed);
  QueryContext ctx;
  for (const Metric m : kAllMetrics) {
    for (const std::size_t lm : csr.landmarks(m)) {
      for (std::size_t t = 0; t < g.node_count(); ++t) {
        const auto from_l = csr.route(lm, t, m, ctx, false);
        const auto to_l = rev.route(lm, t, m, ctx, false);
        ASSERT_TRUE(from_l.found && to_l.found);
        EXPECT_GE(csr.potential(m, lm, t), from_l.cost)
            << metric_name(m) << " L=" << lm << " t=" << t;
        EXPECT_GE(csr.potential(m, t, lm), to_l.cost)
            << metric_name(m) << " L=" << lm << " t=" << t;
      }
    }
  }
}

std::uint64_t fnv1a(std::uint64_t h, double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(CsrGraph, LandmarksAndPotentialsMatchGoldenValues) {
  // Recorded from the lazy-binary-heap preprocessing that ran 1 + k
  // selection sweeps plus 2k table sweeps per metric. Dijkstra distances
  // with strictly positive costs do not depend on heap order, so any
  // correct preprocessing must reproduce these bit for bit.
  OsmCityConfig cfg;
  cfg.rows = 24;
  cfg.cols = 24;
  const RouteGraph g = make_osm_city(cfg);
  const CsrGraph csr(g);
  const std::vector<std::size_t> golden_landmarks[kMetricCount] = {
      {575, 0, 529, 22, 300, 564, 242, 357},
      {575, 25, 556, 143, 398, 268, 61, 359},
      {575, 75, 212, 552, 444, 296, 177, 407},
      {575, 75, 212, 552, 444, 296, 177, 407},
  };
  const std::uint64_t golden_fingerprint[kMetricCount] = {
      0x0d6ac501f333da6cull, 0x336c2ffe6958a6bdull, 0x957fee2dc6b9b252ull,
      0x138d5201818996d4ull};
  for (const Metric m : kAllMetrics) {
    const int mi = static_cast<int>(m);
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t v = 0; v < g.node_count(); v += 5) {
      for (std::size_t t = 0; t < g.node_count(); t += 7) {
        h = fnv1a(h, csr.potential(m, v, t));
      }
    }
    EXPECT_EQ(csr.landmarks(m), golden_landmarks[mi]) << metric_name(m);
    EXPECT_EQ(h, golden_fingerprint[mi]) << metric_name(m);
  }
}

// ---- chain-heavy graphs: the sweeps' chain walks ------------------------

// The Table-III network split into ~250 m edges with ground-truth grades:
// most nodes are chain interiors (two neighbours, linked both ways).
RouteGraph table3_network_graph() {
  const road::RoadNetwork net = road::make_city_network(2019);
  return build_network_graph(
      net, testing::survey_network_grades(net, 0, 9000, 25.0), 25.0);
}

RouteGraph reversed_graph(const RouteGraph& g) {
  RouteGraph reversed(g.node_count());
  for (std::size_t ei = 0; ei < g.edge_count(); ++ei) {
    Edge e = g.edge(ei);
    std::swap(e.from, e.to);
    reversed.add_edge(std::move(e));
  }
  return reversed;
}

// The chain-interior definition, restated over the RouteGraph: out- and
// in-degree 2 over the same neighbour pair {a, b}, a != b, neither v.
std::vector<bool> chain_interiors(const RouteGraph& g) {
  std::vector<std::vector<std::size_t>> outs(g.node_count());
  std::vector<std::vector<std::size_t>> ins(g.node_count());
  for (std::size_t ei = 0; ei < g.edge_count(); ++ei) {
    outs[g.edge(ei).from].push_back(g.edge(ei).to);
    ins[g.edge(ei).to].push_back(g.edge(ei).from);
  }
  std::vector<bool> interior(g.node_count());
  for (std::size_t v = 0; v < g.node_count(); ++v) {
    auto& o = outs[v];
    auto& i = ins[v];
    std::sort(o.begin(), o.end());
    std::sort(i.begin(), i.end());
    interior[v] = o.size() == 2 && o == i && o[0] != o[1] && o[0] != v &&
                  o[1] != v;
  }
  return interior;
}

// Every d(L, .) and d(., L) entry must equal the oracle's shortest-path
// cost bit for bit (+inf where unreachable). A d(., L) row accumulates
// from L's end of the path, so its reference is a query from L on the
// edge-reversed graph.
void expect_exact_landmark_rows(const RouteGraph& g, const CsrGraph& csr) {
  const RouteGraph reversed = reversed_graph(g);
  for (const Metric m : kAllMetrics) {
    const auto cost = metric_cost(m, CostModel{});
    const auto lms = csr.landmarks(m);
    for (std::size_t li = 0; li < lms.size(); ++li) {
      for (std::size_t t = 0; t < g.node_count(); ++t) {
        const auto from_l = shortest_path(g, lms[li], t, cost);
        const auto to_l = shortest_path(reversed, lms[li], t, cost);
        constexpr double kInfCost = std::numeric_limits<double>::infinity();
        EXPECT_EQ(csr.distance_from_landmark(m, li, t),
                  from_l.found ? from_l.cost : kInfCost)
            << metric_name(m) << " L=" << lms[li] << " t=" << t;
        EXPECT_EQ(csr.distance_to_landmark(m, li, t),
                  to_l.found ? to_l.cost : kInfCost)
            << metric_name(m) << " L=" << lms[li] << " t=" << t;
      }
    }
  }
}

TEST(CsrGraphChains, NetworkGraphLandmarkTablesAreExact) {
  const RouteGraph g = table3_network_graph();
  const CsrGraph csr(g);
  const std::vector<bool> interior = chain_interiors(g);
  const auto n_interior = static_cast<std::size_t>(
      std::count(interior.begin(), interior.end(), true));
  EXPECT_EQ(csr.build_stats().chain_nodes, n_interior);
  EXPECT_GT(n_interior * 10, g.node_count() * 9);
  std::size_t interior_landmarks = 0;
  std::size_t total_landmarks = 0;
  for (const Metric m : kAllMetrics) {
    for (const std::size_t lm : csr.landmarks(m)) {
      interior_landmarks += interior[lm] ? 1 : 0;
      ++total_landmarks;
    }
  }
  EXPECT_GT(interior_landmarks * 2, total_landmarks);
  expect_exact_landmark_rows(g, csr);
}

TEST(CsrGraphChains, HandBuiltChainCasesMatchOracleRows) {
  // 0 and 1 are junctions joined by a direct road and by a two-way chain
  // through interiors 2-3-4; graded edges make every metric but distance
  // direction-dependent. Around them, nodes that must stay junctions:
  //   * 6, 7: a one-way chain 1 -> 6 -> 7 -> 0 (degree 1 each way);
  //   * 8: parallel edges 1 -> 8 twice, out to 1 and 9 (in-set {1, 1});
  //   * 10: both neighbours are node 5, two roads each way (a == b);
  //   * 5: three neighbours.
  RouteGraph g(11);
  g.add_bidirectional(make_edge(0, 2, 130.0, 0.03));
  g.add_bidirectional(make_edge(2, 3, 170.0, -0.02));
  g.add_bidirectional(make_edge(3, 4, 90.0, 0.05));
  g.add_bidirectional(make_edge(4, 1, 210.0, -0.04));
  g.add_bidirectional(make_edge(0, 1, 520.0, 0.01));
  g.add_bidirectional(make_edge(0, 5, 80.0, -0.03));
  g.add_bidirectional(make_edge(5, 10, 110.0, 0.02));
  g.add_bidirectional(make_edge(5, 10, 140.0, 0.01));
  g.add_edge(make_edge(1, 6, 150.0, 0.02));
  g.add_edge(make_edge(6, 7, 140.0, -0.01));
  g.add_edge(make_edge(7, 0, 160.0, 0.04));
  g.add_edge(make_edge(1, 8, 100.0, -0.02));
  g.add_edge(make_edge(1, 8, 120.0, 0.03));
  g.add_edge(make_edge(8, 1, 100.0, 0.02));
  g.add_edge(make_edge(8, 9, 60.0, 0.01));
  g.add_edge(make_edge(9, 0, 300.0, -0.05));
  const CsrGraph csr(g);
  EXPECT_EQ(csr.build_stats().chain_nodes, 3u);
  const std::vector<bool> interior = chain_interiors(g);
  for (std::size_t v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(interior[v], v >= 2 && v <= 4) << "node " << v;
  }
  for (const Metric m : kAllMetrics) {
    const auto lms = csr.landmarks(m);
    EXPECT_TRUE(std::any_of(lms.begin(), lms.end(),
                            [&](std::size_t v) { return interior[v]; }))
        << metric_name(m) << ": no interior landmark";
  }
  expect_exact_landmark_rows(g, csr);
  EXPECT_THROW(csr.distance_from_landmark(Metric::kFuel, csr.landmark_count(),
                                          0),
               std::invalid_argument);
  EXPECT_THROW(csr.distance_to_landmark(Metric::kFuel, 0, g.node_count()),
               std::invalid_argument);

  // An isolated all-interior ring: every sweep starts on an interior node
  // and its two walks end back at the source, with no junction to heap.
  RouteGraph ring(5);
  ring.add_bidirectional(make_edge(0, 1, 120.0, 0.02));
  ring.add_bidirectional(make_edge(1, 2, 95.0, -0.03));
  ring.add_bidirectional(make_edge(2, 3, 160.0, 0.01));
  ring.add_bidirectional(make_edge(3, 4, 75.0, 0.04));
  ring.add_bidirectional(make_edge(4, 0, 140.0, -0.02));
  const CsrGraph ring_csr(ring);
  EXPECT_EQ(ring_csr.build_stats().chain_nodes, 5u);
  expect_exact_landmark_rows(ring, ring_csr);

  AltConfig off;
  off.landmarks = 0;
  EXPECT_EQ(CsrGraph(g, CostModel{}, off).build_stats().chain_nodes, 0u);
}

TEST(CsrGraphChains, NetworkGraphLandmarksAndPotentialsMatchGoldenValues) {
  // Recorded with heap-only sweeps, before chain walking: the walks must
  // reproduce the heap-only tables bit for bit.
  const RouteGraph g = table3_network_graph();
  const CsrGraph csr(g);
  const std::vector<std::size_t> golden_landmarks[kMetricCount] = {
      {214, 162, 445, 550, 382, 69, 260, 90},
      {215, 159, 446, 116, 323, 71, 262, 16},
      {519, 174, 446, 383, 551, 53, 260, 69},
      {519, 174, 446, 383, 551, 53, 260, 69},
  };
  const std::uint64_t golden_fingerprint[kMetricCount] = {
      0xeab5dc6fe1d2e969ull, 0x558e337e15cad58cull, 0x6882d29b9cf1d0bdull,
      0x82715c37397d0010ull};
  for (const Metric m : kAllMetrics) {
    const int mi = static_cast<int>(m);
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t v = 0; v < g.node_count(); v += 3) {
      for (std::size_t t = 0; t < g.node_count(); t += 5) {
        h = fnv1a(h, csr.potential(m, v, t));
      }
    }
    EXPECT_EQ(csr.landmarks(m), golden_landmarks[mi]) << metric_name(m);
    EXPECT_EQ(h, golden_fingerprint[mi]) << metric_name(m);
  }
}

// ---- landmark layers shared between live graphs ------------------------

// Every grade halved: the same topology, distance and time costs, but
// different fuel and CO2 costs — one epoch's re-graded network.
RouteGraph regraded(const RouteGraph& g) {
  RouteGraph out(g.node_count());
  for (std::size_t ei = 0; ei < g.edge_count(); ++ei) {
    Edge e = g.edge(ei);
    for (double& x : e.grades) x *= 0.5;
    out.add_edge(std::move(e));
  }
  return out;
}

// Every landmark and every d(L, .) / d(., L) entry of every metric.
struct LandmarkTables {
  std::vector<std::vector<std::size_t>> landmarks;
  std::vector<double> entries;
  bool operator==(const LandmarkTables&) const = default;
};

LandmarkTables tables_of(const CsrGraph& csr) {
  LandmarkTables t;
  for (const Metric m : kAllMetrics) {
    t.landmarks.push_back(csr.landmarks(m));
    for (std::size_t li = 0; li < csr.landmarks(m).size(); ++li) {
      for (std::size_t v = 0; v < csr.node_count(); ++v) {
        t.entries.push_back(csr.distance_from_landmark(m, li, v));
        t.entries.push_back(csr.distance_to_landmark(m, li, v));
      }
    }
  }
  return t;
}

constexpr std::size_t kAllSweeps = 4u * (1u + 2u * 8u);

TEST(CsrGraph, LiveGraphsShareGradeIndependentLandmarkLayers) {
  OsmCityConfig cfg;
  cfg.rows = 12;
  cfg.cols = 12;
  const RouteGraph g = make_osm_city(cfg);
  const RouteGraph g2 = regraded(g);

  LandmarkTables cold;
  {
    const CsrGraph csr(g2);
    ASSERT_EQ(csr.build_stats().landmark_sweeps, kAllSweeps);
    cold = tables_of(csr);
  }
  {
    const CsrGraph first(g);
    EXPECT_EQ(first.build_stats().landmark_sweeps, kAllSweeps);
    // Distance and time layers come from `first`: only fuel and CO2 sweep.
    const CsrGraph second(g2);
    EXPECT_EQ(second.build_stats().landmark_sweeps, kAllSweeps / 2);
    EXPECT_EQ(second.build_stats().chain_nodes,
              first.build_stats().chain_nodes);
    EXPECT_TRUE(tables_of(second) == cold);
    QueryContext ctx;
    const auto pairs = std::vector<std::pair<std::size_t, std::size_t>>{
        {0, g.node_count() - 1}, {5, 100}, {130, 7}, {60, 61}};
    for (const Metric m : kAllMetrics) {
      for (const auto& [u, t] : pairs) {
        expect_identical(second.route(u, t, m, ctx, false),
                         second.route(u, t, m, ctx, true), metric_name(m));
      }
    }

    // A twin of a live graph shares every layer; another landmark budget
    // or node order shares none.
    EXPECT_EQ(CsrGraph(g2).build_stats().landmark_sweeps, 0u);
    AltConfig seven;
    seven.landmarks = 7;
    EXPECT_EQ(CsrGraph(g2, CostModel{}, seven).build_stats().landmark_sweeps,
              4u * (1u + 2u * 7u));
    AltConfig unordered;
    unordered.bfs_order = false;
    EXPECT_EQ(
        CsrGraph(g2, CostModel{}, unordered).build_stats().landmark_sweeps,
        kAllSweeps);
  }
  // Nothing outlives the graphs that held it: a freeze is cold again.
  EXPECT_EQ(CsrGraph(g2).build_stats().landmark_sweeps, kAllSweeps);
}

TEST(CsrGraphObs, OneFreezeRecordsOneSpanPerStage) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const RouteGraph g = make_grid_city(4, 4, 200.0, 6);
  obs::clear_trace();
  obs::set_tracing(true);
  { const CsrGraph csr(g); }
  obs::set_tracing(false);
  const auto totals = obs::span_totals();
  obs::clear_trace();
  for (const char* name : {"csr.freeze.cost_tables", "csr.freeze.landmarks"}) {
    ASSERT_EQ(totals.count(name), 1u) << name;
    EXPECT_EQ(totals.at(name).count, 1) << name;
  }
}

// ---- concurrent queries over one shared graph (tsan-runtime tier) ------

TEST(CsrGraphConcurrency, ParallelQueriesMatchSerial) {
  OsmCityConfig cfg;
  cfg.rows = 14;
  cfg.cols = 14;
  const RouteGraph g = make_osm_city(cfg);
  const CsrGraph csr(g);

  constexpr std::size_t kQueries = 256;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  math::Rng rng(123);
  for (std::size_t i = 0; i < kQueries; ++i) {
    pairs.emplace_back(
        static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(g.node_count()) - 1)),
        static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(g.node_count()) - 1)));
  }

  std::vector<RouteGraph::Route> serial(kQueries);
  {
    QueryContext ctx;
    for (std::size_t i = 0; i < kQueries; ++i) {
      serial[i] = csr.route(pairs[i].first, pairs[i].second,
                            kAllMetrics[i % 4], ctx, true);
    }
  }

  // One QueryContext per worker; the graph itself is shared read-only.
  runtime::ThreadPool pool(4);
  std::vector<RouteGraph::Route> parallel(kQueries);
  std::vector<QueryContext> contexts(4 + 1);
  std::atomic<std::size_t> next_ctx{0};
  thread_local QueryContext* tls_ctx = nullptr;
  runtime::parallel_for(pool, kQueries, [&](std::size_t i) {
    if (tls_ctx == nullptr) {
      tls_ctx = &contexts[next_ctx.fetch_add(1, std::memory_order_relaxed)];
    }
    parallel[i] = csr.route(pairs[i].first, pairs[i].second,
                            kAllMetrics[i % 4], *tls_ctx, true);
  });

  for (std::size_t i = 0; i < kQueries; ++i) {
    expect_identical(serial[i], parallel[i], "concurrent query");
  }
}

TEST(CsrGraphConcurrency, ParallelFreezesOfEqualGraphsMatchColdFreezes) {
  // Freezes of two graphs that share their distance and time layers race
  // on the layer registry: some build a layer, some share one, and graphs
  // die (expiring registry entries) while others look layers up.
  OsmCityConfig cfg;
  cfg.rows = 10;
  cfg.cols = 10;
  const RouteGraph graphs[2] = {make_osm_city(cfg),
                                regraded(make_osm_city(cfg))};
  const LandmarkTables cold[2] = {tables_of(CsrGraph(graphs[0])),
                                  tables_of(CsrGraph(graphs[1]))};

  constexpr std::size_t kFreezes = 24;
  std::vector<LandmarkTables> got(kFreezes);
  std::vector<std::unique_ptr<const CsrGraph>> kept(kFreezes);
  runtime::ThreadPool pool(4);
  runtime::parallel_for(pool, kFreezes, [&](std::size_t i) {
    auto csr = std::make_unique<const CsrGraph>(graphs[i % 2]);
    got[i] = tables_of(*csr);
    if (i % 3 == 0) kept[i] = std::move(csr);
  });
  for (std::size_t i = 0; i < kFreezes; ++i) {
    EXPECT_TRUE(got[i] == cold[i % 2]) << "freeze " << i;
  }
}

}  // namespace
}  // namespace rge::planning

// Integration parity for network-scale eco-routing: on both tentpole
// graphs — the ~10.9k-edge OSM-like city and the 164.8 km Table-III
// network stitched from *fused* (pipeline-estimated) grade profiles — ALT
// queries must return bit-identical costs and identical paths to plain
// CSR Dijkstra for 1000+ random origin/destination pairs under every cost
// metric, and both must match the std::function Dijkstra oracle on a
// spot-check subset.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "math/rng.hpp"
#include "oracles/dijkstra.hpp"
#include "planning/city_gen.hpp"
#include "planning/csr_graph.hpp"
#include "road/network.hpp"
#include "runtime/thread_pool.hpp"
#include "testing/network_survey.hpp"

namespace rge::planning {
namespace {

constexpr Metric kAllMetrics[] = {Metric::kDistance, Metric::kTime,
                                  Metric::kFuel, Metric::kCo2};
constexpr std::size_t kPairs = 1000;

std::vector<std::pair<std::size_t, std::size_t>> random_pairs(
    std::size_t n_nodes, std::size_t count, std::uint64_t seed) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(count);
  math::Rng rng(seed);
  const auto hi = static_cast<std::int64_t>(n_nodes) - 1;
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<std::size_t>(rng.uniform_int(0, hi)),
                       static_cast<std::size_t>(rng.uniform_int(0, hi)));
  }
  return pairs;
}

void expect_identical(const RouteGraph::Route& a, const RouteGraph::Route& b,
                      const char* what, std::size_t from, std::size_t to) {
  ASSERT_EQ(a.found, b.found) << what << " " << from << "->" << to;
  if (!a.found) return;
  ASSERT_EQ(a.cost, b.cost) << what << " " << from << "->" << to;
  ASSERT_EQ(a.edges, b.edges) << what << " " << from << "->" << to;
  ASSERT_EQ(a.nodes, b.nodes) << what << " " << from << "->" << to;
}

void check_parity(const RouteGraph& g, std::uint64_t pair_seed,
                  std::size_t legacy_every) {
  const CostModel model;
  const CsrGraph csr(g, model);
  QueryContext ctx;
  const auto pairs = random_pairs(g.node_count(), kPairs, pair_seed);
  std::size_t found = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [from, to] = pairs[i];
    for (const Metric m : kAllMetrics) {
      const auto dij = csr.route(from, to, m, ctx, /*use_alt=*/false);
      const auto alt = csr.route(from, to, m, ctx, /*use_alt=*/true);
      expect_identical(dij, alt, metric_name(m), from, to);
      if (dij.found) ++found;
      if (i % legacy_every == 0) {
        const auto legacy =
            oracles::shortest_path(g, from, to, oracles::metric_cost(m, model));
        expect_identical(legacy, dij, metric_name(m), from, to);
      }
    }
  }
  // The generators produce connected graphs; near-all pairs must route.
  EXPECT_GT(found, pairs.size() * std::size_t{3});
}

TEST(EcoRoutingParity, OsmCityAltMatchesDijkstraOn1kPairs) {
  const RouteGraph g = make_osm_city();  // 52x52, ~10.9k directed edges
  ASSERT_GE(g.edge_count(), 10000u);
  check_parity(g, /*pair_seed=*/42, /*legacy_every=*/50);
}

TEST(EcoRoutingParity, Table3NetworkFromFusedGradeMapMatchesOn1kPairs) {
  // Full stack: simulate one phone trip per road of the 164.8 km network,
  // run each through the estimation pipeline, fuse per-road grade maps,
  // stitch the routing graph from the *estimated* profiles, then require
  // ALT/Dijkstra parity on it.
  const road::RoadNetwork net = road::make_city_network(2019);
  runtime::ThreadPool pool(4);
  const auto profiles =
      testing::survey_network_grades(net, /*trips_per_road=*/1,
                                     /*base_seed=*/9000, /*step_m=*/25.0,
                                     &pool);
  const RouteGraph g = build_network_graph(net, profiles, 25.0);
  ASSERT_GT(g.node_count(), 100u);
  check_parity(g, /*pair_seed=*/43, /*legacy_every=*/50);
}

TEST(EcoRoutingParity, SurveyIsDeterministicAcrossThreadCounts) {
  // The survey seeds every trip from (base_seed, road index) alone, so the
  // thread pool must not change a single bit of the fused profiles.
  road::RoadNetwork net;
  const road::RoadNetwork full = road::make_city_network(2019);
  for (std::size_t i = 0; i < 4 && i < full.size(); ++i) {
    net.add(full.roads()[i]);
  }
  const auto serial =
      testing::survey_network_grades(net, 1, 9000, 25.0, nullptr);
  runtime::ThreadPool pool(3);
  const auto parallel =
      testing::survey_network_grades(net, 1, 9000, 25.0, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "road " << i;
  }
}

TEST(EcoRoutingParity, FusedAndGroundTruthGraphsShareTopology) {
  road::RoadNetwork net;
  const road::RoadNetwork full = road::make_city_network(2019);
  for (std::size_t i = 0; i < 6 && i < full.size(); ++i) {
    net.add(full.roads()[i]);
  }
  const auto truth = testing::survey_network_grades(net, 0, 9000, 25.0);
  runtime::ThreadPool pool(3);
  const auto fused =
      testing::survey_network_grades(net, 1, 9000, 25.0, &pool);
  const RouteGraph gt = build_network_graph(net, truth, 25.0);
  const RouteGraph fg = build_network_graph(net, fused, 25.0);
  ASSERT_EQ(gt.node_count(), fg.node_count());
  ASSERT_EQ(gt.edge_count(), fg.edge_count());
  double grade_err = 0.0;
  std::size_t n = 0;
  for (std::size_t ei = 0; ei < gt.edge_count(); ++ei) {
    ASSERT_EQ(gt.edge(ei).from, fg.edge(ei).from);
    ASSERT_EQ(gt.edge(ei).to, fg.edge(ei).to);
    ASSERT_EQ(gt.edge(ei).grades.size(), fg.edge(ei).grades.size());
    for (std::size_t k = 0; k < gt.edge(ei).grades.size(); ++k) {
      grade_err += std::abs(gt.edge(ei).grades[k] - fg.edge(ei).grades[k]);
      ++n;
    }
  }
  ASSERT_GT(n, 0u);
  // Single-trip estimates track ground truth to a degree-level mean error;
  // this is a smoke bound, the pipeline's accuracy has its own suites.
  EXPECT_LT(grade_err / static_cast<double>(n), 0.03);
}

}  // namespace
}  // namespace rge::planning

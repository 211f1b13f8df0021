// Perf-tier budgets for network-scale eco-routing (ctest -L perf):
//
//   * an ALT fuel query over the ~10.9k-edge OSM-like city must beat the
//     std::function Dijkstra oracle (per-edge VSP re-integration, O(n)
//     allocation per query) by >= 10x on mean latency;
//   * warm ALT fuel queries must stay sub-millisecond at p99;
//   * landmark preprocessing of the ~800 km, ~3k-node network graph the
//     e2ebench `routes` workload refreshes must take <= 8 ms (median of
//     repeated freezes): its chain interiors are walked, not heaped.
//
// Budgets are relaxed under sanitizers (>= 3x, p99 <= 15 ms, landmarks
// <= 25 ms), whose instrumentation dominates pointer-chasing heap code.
// The checked-in perf-trajectory artifact for this workload is
// BENCH_eco_routing.json, produced by bench/bench_eco_routing (this test
// only enforces budgets).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "math/rng.hpp"
#include "oracles/dijkstra.hpp"
#include "planning/city_gen.hpp"
#include "planning/csr_graph.hpp"
#include "road/network.hpp"
#include "testing/network_survey.hpp"

namespace rge::planning {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(const Clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

constexpr double kMinSpeedup = kSanitized ? 3.0 : 10.0;
constexpr double kP99BudgetMs = kSanitized ? 15.0 : 1.0;
constexpr double kLandmarksBudgetMs = kSanitized ? 25.0 : 8.0;

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

TEST(EcoRoutingPerf, AltBeatsLegacyDijkstraAndStaysSubMillisecond) {
  const RouteGraph g = make_osm_city();  // 52x52, ~10.9k directed edges
  const CostModel model;
  const CsrGraph csr(g, model);

  math::Rng rng(314);
  const auto hi = static_cast<std::int64_t>(g.node_count()) - 1;
  constexpr std::size_t kQueries = 300;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < kQueries; ++i) {
    pairs.emplace_back(static_cast<std::size_t>(rng.uniform_int(0, hi)),
                       static_cast<std::size_t>(rng.uniform_int(0, hi)));
  }

  const oracles::CostFn legacy_cost =
      oracles::metric_cost(Metric::kFuel, model);

  // Legacy baseline on a subset (it is the slow side by design).
  const std::size_t legacy_n = kSanitized ? 8 : 24;
  double checksum = 0.0;
  (void)oracles::shortest_path(g, pairs[0].first, pairs[0].second,
                               legacy_cost);  // warm
  const auto t_legacy = Clock::now();
  for (std::size_t i = 0; i < legacy_n; ++i) {
    checksum +=
        oracles::shortest_path(g, pairs[i].first, pairs[i].second,
                               legacy_cost)
            .cost;
  }
  const double legacy_mean_ms =
      ms_since(t_legacy) / static_cast<double>(legacy_n);

  // Warm ALT (context allocation, landmark tables into cache).
  QueryContext ctx;
  (void)csr.route(pairs[0].first, pairs[0].second, Metric::kFuel, ctx, true);

  std::vector<double> alt_ms;
  alt_ms.reserve(kQueries);
  for (const auto& [from, to] : pairs) {
    const auto t0 = Clock::now();
    const auto r = csr.route(from, to, Metric::kFuel, ctx, true);
    alt_ms.push_back(ms_since(t0));
    checksum += r.cost;
  }
  ASSERT_TRUE(std::isfinite(checksum));

  const double alt_mean_ms =
      std::accumulate(alt_ms.begin(), alt_ms.end(), 0.0) /
      static_cast<double>(alt_ms.size());
  const double alt_p50 = percentile(alt_ms, 0.50);
  const double alt_p99 = percentile(alt_ms, 0.99);
  const double speedup = legacy_mean_ms / alt_mean_ms;

  RecordProperty("legacy_mean_ms", std::to_string(legacy_mean_ms));
  RecordProperty("alt_mean_ms", std::to_string(alt_mean_ms));
  RecordProperty("alt_p99_ms", std::to_string(alt_p99));

  EXPECT_GE(speedup, kMinSpeedup)
      << "legacy mean " << legacy_mean_ms << " ms vs ALT mean " << alt_mean_ms
      << " ms (p50 " << alt_p50 << " ms)";
  EXPECT_LE(alt_p99, kP99BudgetMs)
      << "ALT fuel-query p99 " << alt_p99 << " ms (p50 " << alt_p50
      << " ms) over " << kQueries << " warm queries";
}

TEST(EcoRoutingPerf, RoutesScaleLandmarkPreprocessingWithinBudget) {
  const road::RoadNetwork net = road::make_city_network(2026, 800.0);
  const RouteGraph g = build_network_graph(
      net, testing::survey_network_grades(net, 0, 9000, 25.0), 25.0);
  constexpr int kFreezes = 9;
  std::vector<double> landmarks_ms;
  std::size_t chain_nodes = 0;
  for (int i = 0; i < kFreezes; ++i) {
    const CsrGraph csr(g);
    landmarks_ms.push_back(csr.build_stats().landmarks_ms);
    chain_nodes = csr.build_stats().chain_nodes;
  }
  const double p50 = percentile(landmarks_ms, 0.50);
  RecordProperty("landmarks_ms_p50", std::to_string(p50));
  EXPECT_GT(chain_nodes * 10, g.node_count() * 9);
  EXPECT_LE(p50, kLandmarksBudgetMs)
      << "landmark preprocessing median " << p50 << " ms over " << kFreezes
      << " freezes of " << g.node_count() << " nodes";
}

}  // namespace
}  // namespace rge::planning

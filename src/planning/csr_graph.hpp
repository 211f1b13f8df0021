// Network-scale eco-routing query engine.
//
// CsrGraph freezes a RouteGraph into a flat CSR (compressed sparse row)
// adjacency with BFS-ordered nodes and *precomputed* per-edge cost tables
// for every routing metric — distance, travel time, VSP fuel and CO2 —
// so a query never touches a std::function or re-integrates the VSP model
// over an edge's grade samples. On top of the frozen graph sits an ALT
// preprocessing layer (A*, Landmarks, Triangle inequality): a handful of
// farthest-point landmarks per metric with forward/backward shortest-path
// distances, giving goal-directed potentials that cut the settled set of
// an energy-optimal point-to-point query by an order of magnitude.
//
// Correctness contract (pinned by tests/test_csr_graph and the
// tests/test_eco_routing_parity suite):
//   * route(..., use_alt=true) returns bit-identical costs AND identical
//     paths to route(..., use_alt=false) (plain Dijkstra on the same CSR),
//     which in turn matches the std::function Dijkstra oracle
//     (tests/oracles/dijkstra.hpp) with the matching cost function.
//   * Tie-breaking is deterministic: on bitwise-equal path cost the lower
//     original edge index wins at every node, making the returned path a
//     pure function of (graph, metric) — heap order and landmark pruning
//     cannot change it. See DESIGN.md §9 for the argument.
//
// Landmark potentials are built per cost metric. Fuel costs are strictly
// positive (idle floor) but near-zero downhill, so a distance-metric
// potential would grossly overestimate downhill fuel distances and break
// admissibility; each metric gets its own landmark selection and distance
// tables instead.
//
// Preprocessing runs 1 + 2k single-source sweeps per metric: a seed sweep
// from node 0, one forward sweep per landmark during farthest-point
// selection (written straight into that landmark's d(L, .) row, so
// selection and forward tables share their sweeps), and k sweeps over the
// reverse CSR for d(., L). Junctions go through an indexed 4-ary heap;
// chain interiors (two neighbours, linked both ways: most nodes of a road
// network split into short edges) are walked along their chain instead,
// accumulating edge by edge. With strictly positive costs a Dijkstra
// result depends neither on heap order nor on the walks, so the tables
// are the same bits any correct Dijkstra would produce (DESIGN.md §9).
//
// A metric's landmark layer (its landmarks and both distance tables) is a
// pure function of the landmark budget k, the CSR topology and that
// metric's cost table. Each layer is one immutable shared object, and a
// freeze reuses the layer of any live graph whose input is bitwise equal
// (a process-wide registry of weak references, keyed by a hash of the
// input and confirmed element by element). When an epoch re-grades the
// network, distance and time costs are unchanged, so a graph frozen while
// its predecessor is alive sweeps only the fuel and CO2 layers. The
// registry owns nothing: a freeze with no equal graph alive runs every
// sweep.
//
// Queries are read-only and thread-safe: the graph is immutable after
// construction, and all mutable search state lives in a caller-owned
// QueryContext (one per thread; epoch-stamped arrays make reuse O(touched)
// instead of O(n) per query).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "emissions/vsp.hpp"
#include "planning/route_graph.hpp"

namespace rge::planning {

/// Routing metrics with precomputed cost tables.
enum class Metric : int { kDistance = 0, kTime = 1, kFuel = 2, kCo2 = 3 };
inline constexpr int kMetricCount = 4;
const char* metric_name(Metric m);

/// Parameters the per-edge cost tables are derived from, once, at freeze
/// time. Fuel integrates the VSP model over the edge's stored grade
/// profile and step (emissions::profile_fuel_batch, bit-identical to
/// emissions::profile_fuel_gal per edge).
struct CostModel {
  /// Cruise speed for edges that do not carry their own speed_mps.
  double default_speed_mps = 40.0 / 3.6;
  emissions::VspParams vsp{};
  double co2_g_per_gal = 8908.0;  ///< emissions::kCo2GramsPerGallon
};

/// ALT preprocessing configuration.
struct AltConfig {
  /// Landmarks per metric (farthest-point selection). 0 disables ALT:
  /// route(..., use_alt=true) then degrades to plain Dijkstra.
  std::size_t landmarks = 8;
  /// Renumber nodes in BFS order from node 0 so that a query's working set
  /// walks mostly-contiguous offsets_/head_ ranges.
  bool bfs_order = true;
};

/// Per-query search statistics (written into the QueryContext).
struct QueryStats {
  std::size_t settled = 0;   ///< heap pops that were not stale
  std::size_t relaxed = 0;   ///< edge relaxations attempted
  std::size_t pushed = 0;    ///< heap pushes
};

/// Freeze-time statistics (cost tables vs landmark preprocessing).
struct BuildStats {
  double cost_tables_ms = 0.0;
  double landmarks_ms = 0.0;
  /// Single-source sweeps run by this freeze: 1 + 2k per metric, with k
  /// the landmarks actually chosen, for every metric whose landmark layer
  /// was built here rather than shared with a live graph.
  std::size_t landmark_sweeps = 0;
  /// Chain interiors: nodes the sweeps walk along their chain instead of
  /// heaping (0 when ALT is off).
  std::size_t chain_nodes = 0;
};

class CsrGraph;
/// One metric's ALT tables with the input they derive from (defined in
/// csr_graph.cpp); immutable, shared between graphs of equal input.
struct LandmarkLayer;

/// Mutable per-thread search scratch. Reusable across queries and graphs;
/// epoch stamps avoid O(n) clears, so a warm sub-millisecond query only
/// pays for the nodes it actually touches.
class QueryContext {
 public:
  QueryContext() = default;
  const QueryStats& stats() const { return stats_; }

 private:
  friend class CsrGraph;
  void begin(std::size_t n);
  struct HeapEntry {
    double key;  ///< g + potential (the A* f-value)
    double g;    ///< exact accumulated cost from the source
    std::uint32_t node;
  };

  std::vector<double> dist_;
  std::vector<std::uint32_t> via_;  ///< CSR position of the parent edge
  std::vector<double> pot_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> pot_stamp_;
  std::vector<HeapEntry> heap_;
  std::uint32_t epoch_ = 0;
  QueryStats stats_;
};

class CsrGraph {
 public:
  using Route = RouteGraph::Route;

  /// Freeze `g` into CSR form and run ALT preprocessing. All node/edge ids
  /// in the query API remain the ORIGINAL RouteGraph numbering; the
  /// BFS-ordered internal ids never leak.
  /// @throws std::invalid_argument on an empty graph or a non-finite /
  ///         non-positive precomputed edge cost.
  explicit CsrGraph(const RouteGraph& g, const CostModel& model = {},
                    const AltConfig& alt = {});

  std::size_t node_count() const { return offsets_.size() - 1; }
  std::size_t edge_count() const { return head_.size(); }
  std::size_t landmark_count() const;
  const BuildStats& build_stats() const { return build_stats_; }

  /// Precomputed cost of an edge (original edge index) under a metric.
  double edge_cost(Metric m, std::size_t original_edge_id) const;

  /// Landmark nodes for a metric, as original node ids (for reporting).
  std::vector<std::size_t> landmarks(Metric m) const;

  /// Landmark table entries d(L, node) and d(node, L) for L =
  /// landmarks(m)[index] (original ids), +inf where unreachable. Exposed
  /// for the exact-table tests.
  double distance_from_landmark(Metric m, std::size_t index,
                                std::size_t node) const;
  double distance_to_landmark(Metric m, std::size_t index,
                              std::size_t node) const;

  /// ALT potential: a lower bound on the `m`-cost from `node` to `target`
  /// (original ids). Exposed for admissibility tests.
  double potential(Metric m, std::size_t node, std::size_t target) const;

  /// Point-to-point query. `use_alt=false` runs plain Dijkstra on the CSR
  /// arrays (the baseline the speedup budgets compare against);
  /// `use_alt=true` adds the landmark potentials. Both return bit-identical
  /// costs and identical, deterministically tie-broken paths.
  /// @throws std::invalid_argument on out-of-range endpoints.
  Route route(std::size_t from, std::size_t to, Metric m, QueryContext& ctx,
              bool use_alt = true) const;
  /// Convenience overload with a throwaway context (allocates; prefer the
  /// context form on hot paths).
  Route route(std::size_t from, std::size_t to, Metric m) const;

 private:
  static constexpr std::uint32_t kNoEdge =
      std::numeric_limits<std::uint32_t>::max();

  void order_nodes(const RouteGraph& g, bool bfs_order);
  void build_csr(const RouteGraph& g, const CostModel& model);
  void build_landmarks(const AltConfig& alt);
  double potential_internal(Metric m, std::uint32_t v, std::uint32_t t) const;

  // --- CSR adjacency (internal BFS node order) -------------------------
  std::vector<std::uint32_t> offsets_;   // n+1
  std::vector<std::uint32_t> head_;      // m: target internal node
  std::vector<std::uint32_t> tail_;      // m: source internal node
  std::vector<std::uint32_t> edge_id_;   // m: original edge index
  std::vector<double> length_m_;         // m
  std::array<std::vector<double>, kMetricCount> cost_;  // [metric][pos]

  // Reverse adjacency (landmark backward distances). rev_pos_ maps a
  // reverse slot to its forward CSR position so cost tables are shared.
  std::vector<std::uint32_t> rev_offsets_;
  std::vector<std::uint32_t> rev_head_;
  std::vector<std::uint32_t> rev_pos_;

  // --- id mappings -----------------------------------------------------
  std::vector<std::uint32_t> internal_of_;  // original node -> internal
  std::vector<std::uint32_t> original_of_;  // internal -> original node
  std::vector<std::uint32_t> csr_pos_of_edge_;  // original edge -> CSR pos

  // --- ALT tables, one shared immutable layer per metric ---------------
  std::array<std::shared_ptr<const LandmarkLayer>, kMetricCount> layers_;

  BuildStats build_stats_;
};

}  // namespace rge::planning

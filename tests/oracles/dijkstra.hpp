// Test oracle: Dijkstra over a planning::RouteGraph, pricing each edge per
// relaxation through a std::function cost. planning::CsrGraph (precomputed
// cost tables + ALT) must return bit-identical costs and identical paths
// (test_csr_graph, test_eco_routing_parity); test_eco_routing_perf times
// ALT against it.
#pragma once

#include <cstddef>
#include <functional>

#include "emissions/vsp.hpp"
#include "planning/csr_graph.hpp"

namespace rge::oracles {

/// Edge cost function: maps an edge to a nonnegative cost.
using CostFn = std::function<double(const planning::Edge&)>;

/// Dijkstra shortest path under the given cost. Tie-breaking is
/// deterministic: when two incoming relaxations of a node have bitwise
/// equal cost, the lower edge index wins, so the returned path is a pure
/// function of the graph and cost — independent of heap pop order.
/// @throws std::invalid_argument on out-of-range endpoints.
/// @throws std::logic_error on a negative edge cost.
planning::RouteGraph::Route shortest_path(const planning::RouteGraph& g,
                                          std::size_t from, std::size_t to,
                                          const CostFn& cost);

double edge_cost_distance(const planning::Edge& e);
/// Travel time at a constant cruise speed (s).
double edge_cost_time(const planning::Edge& e, double speed_mps);
/// VSP fuel (gallons) at a constant cruise speed, integrating the edge's
/// grade profile with its stored `grade_step_m` sample spacing.
double edge_cost_fuel(const planning::Edge& e, double speed_mps,
                      const emissions::VspParams& vsp = {});

/// The cost CsrGraph tabulates for metric `m`: edge_cost_* at the edge's
/// own speed (or the model's default), CO2 as fuel times g/gal.
CostFn metric_cost(planning::Metric m, const planning::CostModel& model);

}  // namespace rge::oracles

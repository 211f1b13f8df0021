#include "planning/csr_graph.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <type_traits>

#include "obs/obs.hpp"

namespace rge::planning {

// The input a metric's landmark tables are a pure function of — landmark
// budget k, CSR topology, the metric's costs — and the tables themselves.
// Every derived structure the sweeps use (reverse CSR, chain links,
// reverse-slot costs) is a function of the same input, so equal input
// yields the same bits.
struct LandmarkLayer {
  std::size_t k = 0;
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> head;
  std::vector<double> cost;
  /// Internal node ids; tables are flattened [li * n + v] (from = d(L, v),
  /// to = d(v, L)).
  std::vector<std::uint32_t> landmarks;
  std::vector<double> from;
  std::vector<double> to;
};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kChainEnd =
    std::numeric_limits<std::uint32_t>::max();

double ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Min-heap helpers over QueryContext::HeapEntry keyed on `key`.
struct KeyGreater {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    return a.key > b.key;
  }
};

// Indexed 4-ary min-heap of node ids for the preprocessing sweeps, keyed
// on the sweep's distance array: at most one entry per node (pos_ tracks
// its slot), so an improved distance moves the node's entry up instead of
// pushing a stale duplicate. A node leaves the heap only by pop(), so
// pos_ is all-absent again once a sweep drains it and the scratch is
// reused across sweeps without clearing.
class NodeHeap {
 public:
  explicit NodeHeap(std::size_t n) : pos_(n, kAbsent) { heap_.reserve(n); }

  bool empty() const { return heap_.empty(); }

  /// Inserts `node`, or restores heap order after its key dropped.
  void push_or_decrease(std::uint32_t node, const double* key) {
    std::size_t i = pos_[node];
    if (i == kAbsent) {
      i = heap_.size();
      heap_.push_back(node);
    }
    const double k = key[node];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!(k < key[heap_[parent]])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, node);
  }

  std::uint32_t pop(const double* key) {
    const std::uint32_t top = heap_.front();
    pos_[top] = kAbsent;
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    const std::size_t size = heap_.size();
    if (size == 0) return top;
    const double k = key[last];
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= size) break;
      const std::size_t end = std::min(first + 4, size);
      std::size_t best = first;
      double best_key = key[heap_[first]];
      for (std::size_t c = first + 1; c < end; ++c) {
        const double ck = key[heap_[c]];
        if (ck < best_key) {
          best = c;
          best_key = ck;
        }
      }
      if (!(best_key < k)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, last);
    return top;
  }

 private:
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  void place(std::size_t i, std::uint32_t node) {
    heap_[i] = node;
    pos_[node] = static_cast<std::uint32_t>(i);
  }

  std::vector<std::uint32_t> heap_;
  std::vector<std::uint32_t> pos_;
};

// A chain interior has exactly two neighbours, linked both ways: out- and
// in-degree 2 over the same pair {a, b}, with a != b and neither the node
// itself. The definition is symmetric, so both CSR directions agree.
bool is_chain_interior(std::uint32_t v,
                       const std::vector<std::uint32_t>& offsets,
                       const std::vector<std::uint32_t>& head,
                       const std::vector<std::uint32_t>& rev_offsets,
                       const std::vector<std::uint32_t>& rev_head) {
  const std::uint32_t lo = offsets[v];
  const std::uint32_t rlo = rev_offsets[v];
  if (offsets[v + 1] - lo != 2 || rev_offsets[v + 1] - rlo != 2) return false;
  const std::uint32_t a = head[lo];
  const std::uint32_t b = head[lo + 1];
  const std::uint32_t c = rev_head[rlo];
  const std::uint32_t d = rev_head[rlo + 1];
  return a != b && a != v && b != v &&
         ((a == c && b == d) || (a == d && b == c));
}

// Chain continuations over one CSR direction: for a position u -> v whose
// head v is a chain interior, the out-position of v that does not lead
// back to u; kChainEnd everywhere else.
std::vector<std::uint32_t> chain_next(
    const std::vector<std::uint32_t>& offsets,
    const std::vector<std::uint32_t>& head,
    const std::vector<std::uint8_t>& interior) {
  std::vector<std::uint32_t> next(head.size(), kChainEnd);
  const std::size_t n = offsets.size() - 1;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t p = offsets[u]; p < offsets[u + 1]; ++p) {
      const std::uint32_t v = head[p];
      if (!interior[v]) continue;
      const std::uint32_t lo = offsets[v];
      next[p] = head[lo] == u ? lo + 1 : lo;
    }
  }
  return next;
}

// Single-source shortest-path costs from `src` over one CSR direction:
// out[v] = d(src, v), +inf where unreachable. Costs are strictly positive,
// so a settled node is never improved again and one heap entry per node
// suffices. `next` holds the chain continuations (chain_next): a
// relaxation that lands on a chain interior walks on along the chain,
// accumulating edge by edge as Dijkstra would, instead of heaping the
// node; the walk stops where it no longer improves, and only the junction
// at the chain's far end is heaped. Interior nodes enter the heap only as
// the source. DESIGN.md §9 shows why the result is bit-identical.
void sweep(const std::uint32_t* offsets, const std::uint32_t* head,
           const std::uint32_t* next, const double* cost, std::uint32_t src,
           std::size_t n, double* out, NodeHeap& heap) {
  std::fill(out, out + n, kInf);
  out[src] = 0.0;
  heap.push_or_decrease(src, out);
  while (!heap.empty()) {
    const std::uint32_t u = heap.pop(out);
    const double du = out[u];
    const std::uint32_t hi = offsets[u + 1];
    for (std::uint32_t p = offsets[u]; p < hi; ++p) {
      std::uint32_t v = head[p];
      double nd = du + cost[p];
      if (!(nd < out[v])) continue;
      out[v] = nd;
      std::uint32_t q = next[p];
      while (q != kChainEnd) {  // v is a chain interior: walk on
        nd += cost[q];
        v = head[q];
        if (!(nd < out[v])) break;
        out[v] = nd;
        q = next[q];
      }
      if (q == kChainEnd) heap.push_or_decrease(v, out);
    }
  }
}

// Hash of a landmark layer's input. It only rejects mismatches fast:
// reuse is always confirmed by full element-wise equality.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 29);
}

template <typename T>
std::uint64_t hash_words(std::uint64_t h, const std::vector<T>& xs) {
  for (const T x : xs) {
    if constexpr (std::is_same_v<T, double>) {
      h = mix(h, std::bit_cast<std::uint64_t>(x));
    } else {
      h = mix(h, x);
    }
  }
  return mix(h, xs.size());
}

// The landmark layers of every live graph, by input hash. It holds weak
// references only, so it keeps no layer alive that no graph holds; expired
// entries are pruned on every lookup. A hit needs equal input element by
// element; costs are finite and positive (build_csr checks), so equal
// values are equal bits. Freezes of equal input that race may both build
// their layer — both are the same bits, and either serves later lookups.
class LayerRegistry {
 public:
  std::shared_ptr<const LandmarkLayer> find(
      std::uint64_t hash, std::size_t k,
      const std::vector<std::uint32_t>& offsets,
      const std::vector<std::uint32_t>& head,
      const std::vector<double>& cost) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(entries_,
                  [](const Entry& e) { return e.layer.expired(); });
    for (const Entry& e : entries_) {
      if (e.hash != hash) continue;
      std::shared_ptr<const LandmarkLayer> layer = e.layer.lock();
      if (layer && layer->k == k && layer->offsets == offsets &&
          layer->head == head && layer->cost == cost) {
        return layer;
      }
    }
    return nullptr;
  }

  void add(std::uint64_t hash,
           const std::shared_ptr<const LandmarkLayer>& layer) {
    const std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back({hash, layer});
  }

 private:
  struct Entry {
    std::uint64_t hash;
    std::weak_ptr<const LandmarkLayer> layer;
  };
  std::mutex mu_;
  std::vector<Entry> entries_;
};

LayerRegistry& layer_registry() {
  static LayerRegistry registry;
  return registry;
}

}  // namespace

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::kDistance: return "distance";
    case Metric::kTime: return "time";
    case Metric::kFuel: return "fuel";
    case Metric::kCo2: return "co2";
  }
  return "?";
}

void QueryContext::begin(std::size_t n) {
  if (dist_.size() != n) {
    dist_.assign(n, kInf);
    via_.assign(n, 0);
    pot_.assign(n, 0.0);
    stamp_.assign(n, 0);
    pot_stamp_.assign(n, 0);
    epoch_ = 0;
  }
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: stale stamps could collide, hard reset
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(pot_stamp_.begin(), pot_stamp_.end(), 0);
    epoch_ = 1;
  }
  heap_.clear();
  stats_ = QueryStats{};
}

CsrGraph::CsrGraph(const RouteGraph& g, const CostModel& model,
                   const AltConfig& alt) {
  if (g.node_count() == 0) {
    throw std::invalid_argument("CsrGraph: empty graph");
  }
  if (g.node_count() >= kNoEdge || g.edge_count() >= kNoEdge) {
    throw std::invalid_argument("CsrGraph: graph too large for u32 ids");
  }

  {
    OBS_SPAN("csr.freeze.cost_tables");
    const auto t0 = std::chrono::steady_clock::now();
    order_nodes(g, alt.bfs_order);
    build_csr(g, model);
    build_stats_.cost_tables_ms = ms_since(t0);
  }
  OBS_SPAN("csr.freeze.landmarks");
  const auto t1 = std::chrono::steady_clock::now();
  build_landmarks(alt);
  build_stats_.landmarks_ms = ms_since(t1);
}

// Node order: BFS from node 0, unreached nodes appended by id.
void CsrGraph::order_nodes(const RouteGraph& g, bool bfs_order) {
  const std::size_t n = g.node_count();
  original_of_.clear();
  original_of_.reserve(n);
  internal_of_.assign(n, kNoEdge);
  if (bfs_order) {
    internal_of_[0] = 0;
    original_of_.push_back(0);
    for (std::size_t qi = 0; qi < original_of_.size(); ++qi) {
      const std::uint32_t u = original_of_[qi];
      for (const std::size_t ei : g.out_edges(u)) {
        const auto v = static_cast<std::uint32_t>(g.edge(ei).to);
        if (internal_of_[v] == kNoEdge) {
          internal_of_[v] = static_cast<std::uint32_t>(original_of_.size());
          original_of_.push_back(v);
        }
      }
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      if (internal_of_[v] == kNoEdge) {
        internal_of_[v] = static_cast<std::uint32_t>(original_of_.size());
        original_of_.push_back(v);
      }
    }
  } else {
    for (std::uint32_t v = 0; v < n; ++v) {
      internal_of_[v] = v;
      original_of_.push_back(v);
    }
  }
}

void CsrGraph::build_csr(const RouteGraph& g, const CostModel& model) {
  const std::size_t n = g.node_count();
  const std::size_t m = g.edge_count();

  offsets_.assign(n + 1, 0);
  head_.resize(m);
  tail_.resize(m);
  edge_id_.resize(m);
  length_m_.resize(m);
  csr_pos_of_edge_.assign(m, kNoEdge);

  // Out-degree histogram in internal order, then prefix sums.
  for (std::uint32_t iu = 0; iu < n; ++iu) {
    offsets_[iu + 1] = static_cast<std::uint32_t>(
        g.out_edges(original_of_[iu]).size());
  }
  for (std::size_t i = 0; i < n; ++i) offsets_[i + 1] += offsets_[i];

  // Flat grade profiles in CSR order feed the batch fuel costing below.
  std::vector<double> grades_flat;
  std::vector<std::uint32_t> grade_offsets(m + 1, 0);
  std::vector<double> step_m(m);
  std::vector<double> speed(m);

  for (std::uint32_t iu = 0; iu < n; ++iu) {
    std::uint32_t pos = offsets_[iu];
    for (const std::size_t ei : g.out_edges(original_of_[iu])) {
      const Edge& e = g.edge(ei);
      head_[pos] = internal_of_[e.to];
      tail_[pos] = iu;
      edge_id_[pos] = static_cast<std::uint32_t>(ei);
      length_m_[pos] = e.length_m;
      csr_pos_of_edge_[ei] = pos;
      step_m[pos] = e.grade_step_m;
      speed[pos] = e.speed_mps > 0.0 ? e.speed_mps : model.default_speed_mps;
      ++pos;
    }
  }
  // Grade profiles, appended in CSR position order.
  for (std::uint32_t pos = 0; pos < m; ++pos) {
    const Edge& e = g.edge(edge_id_[pos]);
    grade_offsets[pos] = static_cast<std::uint32_t>(grades_flat.size());
    grades_flat.insert(grades_flat.end(), e.grades.begin(), e.grades.end());
  }
  grade_offsets[m] = static_cast<std::uint32_t>(grades_flat.size());

  // ---- cost tables ----------------------------------------------------
  for (auto& c : cost_) c.resize(m);
  auto& dist_cost = cost_[static_cast<int>(Metric::kDistance)];
  auto& time_cost = cost_[static_cast<int>(Metric::kTime)];
  auto& fuel_cost = cost_[static_cast<int>(Metric::kFuel)];
  auto& co2_cost = cost_[static_cast<int>(Metric::kCo2)];

  for (std::uint32_t pos = 0; pos < m; ++pos) {
    dist_cost[pos] = length_m_[pos];
    time_cost[pos] = length_m_[pos] / speed[pos];
  }
  emissions::profile_fuel_batch(grades_flat, grade_offsets, step_m, speed,
                                fuel_cost, model.vsp);
  for (std::uint32_t pos = 0; pos < m; ++pos) {
    co2_cost[pos] = fuel_cost[pos] * model.co2_g_per_gal;
  }

  for (int mi = 0; mi < kMetricCount; ++mi) {
    for (std::uint32_t pos = 0; pos < m; ++pos) {
      const double c = cost_[mi][pos];
      if (!std::isfinite(c) || c <= 0.0) {
        throw std::invalid_argument(
            std::string("CsrGraph: non-positive or non-finite ") +
            metric_name(static_cast<Metric>(mi)) + " cost on edge " +
            std::to_string(edge_id_[pos]));
      }
    }
  }

  // ---- reverse CSR ----------------------------------------------------
  rev_offsets_.assign(n + 1, 0);
  rev_head_.resize(m);
  rev_pos_.resize(m);
  for (std::uint32_t pos = 0; pos < m; ++pos) ++rev_offsets_[head_[pos] + 1];
  for (std::size_t i = 0; i < n; ++i) rev_offsets_[i + 1] += rev_offsets_[i];
  {
    std::vector<std::uint32_t> cursor(rev_offsets_.begin(),
                                      rev_offsets_.end() - 1);
    for (std::uint32_t pos = 0; pos < m; ++pos) {
      const std::uint32_t slot = cursor[head_[pos]]++;
      rev_head_[slot] = tail_[pos];
      rev_pos_[slot] = pos;
    }
  }
}

void CsrGraph::build_landmarks(const AltConfig& alt) {
  const std::size_t n = node_count();
  const std::size_t k = std::min(alt.landmarks, n);
  if (k == 0) {
    layers_.fill(std::make_shared<const LandmarkLayer>());
    return;
  }

  // Share the layer of any live graph with bitwise-equal input.
  const std::uint64_t topology =
      hash_words(hash_words(mix(0, k), offsets_), head_);
  std::array<std::uint64_t, kMetricCount> hashes{};
  for (int mi = 0; mi < kMetricCount; ++mi) {
    hashes[mi] = hash_words(topology, cost_[mi]);
    layers_[mi] =
        layer_registry().find(hashes[mi], k, offsets_, head_, cost_[mi]);
  }

  // Chain structure, shared by every sweep of every metric.
  std::vector<std::uint8_t> interior(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    interior[v] =
        is_chain_interior(v, offsets_, head_, rev_offsets_, rev_head_);
    build_stats_.chain_nodes += interior[v];
  }
  const std::vector<std::uint32_t> fwd_next =
      chain_next(offsets_, head_, interior);
  const std::vector<std::uint32_t> rev_next =
      chain_next(rev_offsets_, rev_head_, interior);

  NodeHeap heap(n);
  auto run_sweep = [&](const std::vector<std::uint32_t>& offsets,
                       const std::vector<std::uint32_t>& head,
                       const std::vector<std::uint32_t>& next,
                       const double* cost, std::uint32_t src, double* out) {
    sweep(offsets.data(), head.data(), next.data(), cost, src, n, out, heap);
    ++build_stats_.landmark_sweeps;
  };

  std::vector<double> seed(n);
  std::vector<double> min_dist;
  std::vector<double> rev_cost(edge_count());
  for (int mi = 0; mi < kMetricCount; ++mi) {
    if (layers_[mi]) continue;
    auto layer = std::make_shared<LandmarkLayer>();
    layer->k = k;
    layer->offsets = offsets_;
    layer->head = head_;
    layer->cost = cost_[mi];
    const double* cost = cost_[mi].data();
    auto& lms = layer->landmarks;
    auto& from = layer->from;
    from.resize(k * n);

    // Farthest-point selection on forward distances, seeded from node 0.
    // Ties break to the lower internal id so selection is deterministic.
    // Each landmark's selection sweep is written straight into its
    // d(L, .) row, so no forward sweep runs twice.
    run_sweep(offsets_, head_, fwd_next, cost, 0, seed.data());
    std::uint32_t next = 0;
    double best = -1.0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (std::isfinite(seed[v]) && seed[v] > best) {
        best = seed[v];
        next = v;
      }
    }
    min_dist.assign(n, kInf);
    while (lms.size() < k) {
      double* row = from.data() + lms.size() * n;
      lms.push_back(next);
      run_sweep(offsets_, head_, fwd_next, cost, next, row);
      double far = -1.0;
      std::uint32_t far_node = kNoEdge;
      for (std::uint32_t v = 0; v < n; ++v) {
        min_dist[v] = std::min(min_dist[v], row[v]);
        if (std::isfinite(min_dist[v]) && min_dist[v] > far) {
          far = min_dist[v];
          far_node = v;
        }
      }
      if (far_node == kNoEdge || far <= 0.0) break;  // graph exhausted
      next = far_node;
    }
    from.resize(lms.size() * n);  // selection may stop before k

    // d(., L) rows: sweeps over the reverse CSR, with this metric's costs
    // gathered into reverse-slot order once.
    for (std::size_t slot = 0; slot < rev_cost.size(); ++slot) {
      rev_cost[slot] = cost[rev_pos_[slot]];
    }
    auto& to = layer->to;
    to.resize(lms.size() * n);
    for (std::size_t li = 0; li < lms.size(); ++li) {
      run_sweep(rev_offsets_, rev_head_, rev_next, rev_cost.data(), lms[li],
                to.data() + li * n);
    }
    layers_[mi] = layer;
    layer_registry().add(hashes[mi], layers_[mi]);
  }
}

double CsrGraph::potential_internal(Metric m, std::uint32_t v,
                                    std::uint32_t t) const {
  const LandmarkLayer& layer = *layers_[static_cast<int>(m)];
  const std::size_t n = node_count();
  const auto& from = layer.from;
  const auto& to = layer.to;
  const std::size_t k = layer.landmarks.size();
  double best = 0.0;
  for (std::size_t li = 0; li < k; ++li) {
    const double l_t = from[li * n + t];
    const double l_v = from[li * n + v];
    // d(L,t) <= d(L,v) + d(v,t)  =>  d(v,t) >= d(L,t) - d(L,v).
    if (std::isfinite(l_v)) {
      if (!std::isfinite(l_t)) return kInf;  // v reaches L's tree, t doesn't
      best = std::max(best, l_t - l_v);
    }
    const double v_l = to[li * n + v];
    const double t_l = to[li * n + t];
    // d(v,L) <= d(v,t) + d(t,L)  =>  d(v,t) >= d(v,L) - d(t,L).
    if (std::isfinite(t_l)) {
      best = std::max(best, v_l - t_l);  // v_l may be inf: bound is inf
    }
  }
  return best;
}

double CsrGraph::edge_cost(Metric m, std::size_t original_edge_id) const {
  if (original_edge_id >= csr_pos_of_edge_.size()) {
    throw std::invalid_argument("CsrGraph::edge_cost: bad edge id");
  }
  return cost_[static_cast<int>(m)][csr_pos_of_edge_[original_edge_id]];
}

std::size_t CsrGraph::landmark_count() const {
  return layers_[0]->landmarks.size();
}

std::vector<std::size_t> CsrGraph::landmarks(Metric m) const {
  std::vector<std::size_t> out;
  for (const std::uint32_t v : layers_[static_cast<int>(m)]->landmarks) {
    out.push_back(original_of_[v]);
  }
  return out;
}

double CsrGraph::distance_from_landmark(Metric m, std::size_t index,
                                        std::size_t node) const {
  const LandmarkLayer& layer = *layers_[static_cast<int>(m)];
  if (index >= layer.landmarks.size() || node >= internal_of_.size()) {
    throw std::invalid_argument("CsrGraph::distance_from_landmark: bad id");
  }
  return layer.from[index * node_count() + internal_of_[node]];
}

double CsrGraph::distance_to_landmark(Metric m, std::size_t index,
                                      std::size_t node) const {
  const LandmarkLayer& layer = *layers_[static_cast<int>(m)];
  if (index >= layer.landmarks.size() || node >= internal_of_.size()) {
    throw std::invalid_argument("CsrGraph::distance_to_landmark: bad id");
  }
  return layer.to[index * node_count() + internal_of_[node]];
}

double CsrGraph::potential(Metric m, std::size_t node,
                           std::size_t target) const {
  if (node >= internal_of_.size() || target >= internal_of_.size()) {
    throw std::invalid_argument("CsrGraph::potential: bad node id");
  }
  return potential_internal(m, internal_of_[node], internal_of_[target]);
}

CsrGraph::Route CsrGraph::route(std::size_t from, std::size_t to, Metric m,
                                QueryContext& ctx, bool use_alt) const {
  const std::size_t n = node_count();
  if (from >= n || to >= n) {
    throw std::invalid_argument("CsrGraph::route: bad endpoints");
  }
  if (layers_[static_cast<int>(m)]->landmarks.empty()) use_alt = false;

  Route route;
  const std::uint32_t s = internal_of_[from];
  const std::uint32_t t = internal_of_[to];
  ctx.begin(n);
  if (s == t) {
    route.found = true;
    route.nodes.push_back(from);
    return route;
  }

  const double* cost = cost_[static_cast<int>(m)].data();
  const std::uint32_t epoch = ctx.epoch_;

  auto pot = [&](std::uint32_t v) -> double {
    if (!use_alt) return 0.0;
    if (ctx.pot_stamp_[v] != epoch) {
      ctx.pot_stamp_[v] = epoch;
      ctx.pot_[v] = potential_internal(m, v, t);
    }
    return ctx.pot_[v];
  };

  auto& heap = ctx.heap_;
  auto push = [&](double key, double g, std::uint32_t node) {
    heap.push_back({key, g, node});
    std::push_heap(heap.begin(), heap.end(), KeyGreater{});
    ++ctx.stats_.pushed;
  };

  ctx.dist_[s] = 0.0;
  ctx.via_[s] = kNoEdge;
  ctx.stamp_[s] = epoch;
  push(pot(s), 0.0, s);

  double best = kInf;
  double bound = kInf;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), KeyGreater{});
    const QueryContext::HeapEntry e = heap.back();
    heap.pop_back();
    if (e.key > bound) break;
    const std::uint32_t u = e.node;
    if (e.g > ctx.dist_[u]) continue;  // stale entry
    ++ctx.stats_.settled;
    if (u == t) {
      // Keep settling until the heap's best key strictly exceeds the
      // found cost (plus a relative ulp-slack absorbing any rounding in
      // the landmark subtraction): this finishes the equal-cost plateau,
      // which is what makes the deterministic tie-break independent of
      // whether potentials pruned the search. See DESIGN.md §9.
      best = ctx.dist_[t];
      bound = best * (1.0 + 1e-12);
      continue;
    }
    const double du = ctx.dist_[u];
    const std::uint32_t lo = offsets_[u];
    const std::uint32_t hi = offsets_[u + 1];
    for (std::uint32_t p = lo; p < hi; ++p) {
      const std::uint32_t v = head_[p];
      const double nd = du + cost[p];
      ++ctx.stats_.relaxed;
      const bool fresh = ctx.stamp_[v] != epoch;
      if (fresh || nd < ctx.dist_[v]) {
        const double pv = pot(v);
        if (pv == kInf) continue;  // v provably cannot reach t
        ctx.stamp_[v] = epoch;
        ctx.dist_[v] = nd;
        ctx.via_[v] = p;
        push(nd + pv, nd, v);
      } else if (nd == ctx.dist_[v] &&
                 edge_id_[p] < edge_id_[ctx.via_[v]]) {
        ctx.via_[v] = p;  // deterministic tie-break: lowest edge index
      }
    }
  }

  if (!std::isfinite(best)) return route;
  route.found = true;
  route.cost = best;
  std::uint32_t node = t;
  while (node != s) {
    const std::uint32_t p = ctx.via_[node];
    route.edges.push_back(edge_id_[p]);
    route.nodes.push_back(original_of_[node]);
    route.length_m += length_m_[p];
    node = tail_[p];
  }
  route.nodes.push_back(from);
  std::reverse(route.nodes.begin(), route.nodes.end());
  std::reverse(route.edges.begin(), route.edges.end());
  return route;
}

CsrGraph::Route CsrGraph::route(std::size_t from, std::size_t to,
                                Metric m) const {
  QueryContext ctx;
  return route(from, to, m, ctx, /*use_alt=*/true);
}

}  // namespace rge::planning

#include "service/map_service.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"

namespace rge::service {

namespace {

/// Fusion grid over a whole road: [0, length] with the service's cell
/// size, laid out exactly like make_overlap_grid (integer-indexed, final
/// sample pinned to the road length).
core::FusionGrid full_road_grid(double length_m, double step) {
  if (!(length_m > 0.0)) {
    throw std::invalid_argument("MapService: road with non-positive length");
  }
  core::FusionGrid grid;
  grid.lo = 0.0;
  grid.hi = length_m;
  grid.step = step;
  const auto whole_steps =
      static_cast<std::size_t>(std::floor(length_m / step));
  const bool exact =
      static_cast<double>(whole_steps) * step >= length_m - 1e-9 * step;
  grid.n = whole_steps + 1 + (exact ? 0 : 1);
  return grid;
}

/// Deterministic road -> shard assignment: FNV-1a over the road id. A
/// pure function of the identifier — never of thread count, pool size, or
/// ingest order — so routing is reproducible everywhere.
std::uint64_t road_hash(RoadId road) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 4; ++i) {
    h ^= (road >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The served view of one road's accumulator.
RoadView view_of(RoadId id, const core::FusionAccumulator& acc,
                 std::uint32_t min_coverage) {
  auto snap = acc.snapshot_covered(min_coverage);
  RoadView view;
  view.road = id;
  view.track = std::move(snap.track);
  view.track.source = "map-service";
  view.cells = std::move(snap.cells);
  view.coverage = std::move(snap.coverage);
  return view;
}

}  // namespace

struct MapService::Shard {
  std::size_t index;
  std::vector<RoadId> roads;  ///< owned, ascending
  /// Per road (indexed by RoadId; only owned roads are ever set):
  /// accumulated into since publish() last gathered the marks. Set for
  /// every owned road by build_shards, so the first publish after
  /// construction or rebalance rebuilds every road.
  std::vector<std::uint8_t> dirty;
  core::MatcherCache matchers;
  /// Guards the owned roads' accumulators, the marks and the counters.
  std::mutex mu;
  std::uint64_t tracks_ingested = 0;
  std::uint64_t samples_ingested = 0;
#if RGE_OBS_ENABLED
  // Per-shard obs counters (service.shard<k>.tracks / .samples), bumped
  // alongside the local counters when the obs layer is runtime-enabled.
  obs::Counter c_tracks;
  obs::Counter c_samples;
#endif

  Shard(std::size_t idx, std::size_t n_roads, std::size_t matcher_capacity)
      : index(idx),
        dirty(n_roads, 0),
        matchers(matcher_capacity)
#if RGE_OBS_ENABLED
        ,
        c_tracks("service.shard" + std::to_string(idx) + ".tracks"),
        c_samples("service.shard" + std::to_string(idx) + ".samples")
#endif
  {
  }

  void count_ingest(std::uint64_t tracks, std::uint64_t samples) {
    tracks_ingested += tracks;
    samples_ingested += samples;
#if RGE_OBS_ENABLED
    if (obs::enabled()) {
      c_tracks.add(static_cast<std::int64_t>(tracks));
      c_samples.add(static_cast<std::int64_t>(samples));
    }
#endif
  }
};

MapService::MapService(road::RoadNetwork network, MapServiceConfig cfg)
    : network_(std::move(network)), cfg_(cfg) {
  if (network_.size() == 0) {
    throw std::invalid_argument("MapService: empty road network");
  }
  if (cfg_.n_shards == 0) {
    throw std::invalid_argument("MapService: n_shards must be >= 1");
  }
  if (!(cfg_.fusion.distance_step_m > 0.0)) {
    throw std::invalid_argument(
        "MapService: distance_step_m must be positive");
  }
  acc_.reserve(network_.size());
  for (const auto& nr : network_.roads()) {
    acc_.emplace_back(
        full_road_grid(nr.road.length_m(), cfg_.fusion.distance_step_m),
        cfg_.fusion);
  }
  build_shards(cfg_.n_shards);
  auto initial = std::make_shared<ServiceSnapshot>();
  initial->roads.views_.reserve(network_.size());
  for (std::size_t r = 0; r < network_.size(); ++r) {
    auto view = std::make_shared<RoadView>();
    view->road = static_cast<RoadId>(r);
    initial->roads.views_.push_back(std::move(view));
  }
  published_ = std::move(initial);
}

MapService::~MapService() = default;

void MapService::build_shards(std::size_t n_shards) {
  shards_.clear();
  for (std::size_t s = 0; s < n_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(s, network_.size(),
                                              cfg_.matcher_cache_capacity));
  }
  for (std::size_t r = 0; r < network_.size(); ++r) {
    Shard& shard = *shards_[shard_of(static_cast<RoadId>(r))];
    shard.roads.push_back(static_cast<RoadId>(r));
    shard.dirty[r] = 1;
  }
}

void MapService::check_road(RoadId id) const {
  if (id >= network_.size()) {
    throw std::out_of_range("MapService: unknown road id " +
                            std::to_string(id));
  }
}

const road::Road& MapService::road(RoadId id) const {
  check_road(id);
  return network_.roads()[id].road;
}

const core::FusionGrid& MapService::grid(RoadId id) const {
  check_road(id);
  return acc_[id].grid();  // immutable: no lock needed
}

std::size_t MapService::shard_of(RoadId id) const {
  check_road(id);
  return road_hash(id) % shards_.size();
}

bool MapService::on_grid(const TrackUpload& upload) const {
  const std::vector<double>& s = upload.track.s;
  if (s.empty()) {
    throw std::invalid_argument("MapService::ingest: upload without s");
  }
  const core::FusionGrid& grid = acc_[upload.road].grid();
  return s.back() >= grid.lo && s.front() <= grid.hi;
}

void MapService::apply_to_shard(
    std::size_t s, const std::vector<const TrackUpload*>& uploads) {
  if (uploads.empty()) return;
  Shard& shard = *shards_[s];
  std::lock_guard<std::mutex> lock(shard.mu);
  std::uint64_t samples = 0;
  for (const TrackUpload* up : uploads) {
    acc_[up->road].add_track(up->track);
    shard.dirty[up->road] = 1;
    samples += up->track.s.size();
  }
  shard.count_ingest(uploads.size(), samples);
  samples_total_.fetch_add(samples, std::memory_order_relaxed);
}

void MapService::ingest(const std::vector<TrackUpload>& uploads,
                        runtime::ThreadPool* pool) {
  OBS_SPAN("service.ingest");
  std::vector<std::vector<const TrackUpload*>> per_shard(shards_.size());
  for (const TrackUpload& up : uploads) {
    const std::size_t s = shard_of(up.road);
    if (on_grid(up)) per_shard[s].push_back(&up);
  }
  // Shards run concurrently, but each applies its uploads in upload
  // order, and a road's uploads all land on one shard, so per-cell
  // accumulation order equals upload order for ANY pool size and ANY
  // shard count — the bit-reproducibility contract.
  const auto apply = [&](std::size_t s) { apply_to_shard(s, per_shard[s]); };
  if (pool != nullptr) {
    runtime::parallel_for(*pool, shards_.size(), apply);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) apply(s);
  }
  OBS_COUNT("service.uploads", static_cast<std::int64_t>(uploads.size()));
}

void MapService::ingest_one(const TrackUpload& upload) {
  OBS_SPAN("service.ingest_one");
  const std::size_t s = shard_of(upload.road);
  if (on_grid(upload)) apply_to_shard(s, {&upload});
  OBS_COUNT("service.uploads", 1);
}

std::uint64_t MapService::publish(runtime::ThreadPool* pool) {
  OBS_SPAN("service.publish");
  std::lock_guard<std::mutex> publishers(publish_mu_);
  const std::shared_ptr<const ServiceSnapshot> prev = snapshot();
  const std::size_t n_roads = network_.size();

  // Per road: its rebuilt view, or null to share the previous one.
  std::vector<std::shared_ptr<const RoadView>> rebuilt(n_roads);
  {
    OBS_SPAN("service.publish.finalize");
    // Under one hold of its lock, a shard gathers and clears its marks and
    // finalizes each marked road. An upload applied after that re-marks
    // its road, so the next publish rebuilds it; none is lost.
    const auto finalize = [&](std::size_t s) {
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const RoadId r : shard.roads) {
        if (shard.dirty[r] == 0) continue;
        shard.dirty[r] = 0;
        rebuilt[r] = std::make_shared<const RoadView>(
            view_of(r, acc_[r], cfg_.min_coverage));
      }
    };
    if (pool != nullptr) {
      runtime::parallel_for(*pool, shards_.size(), finalize);
    } else {
      for (std::size_t s = 0; s < shards_.size(); ++s) finalize(s);
    }
  }

  auto next = std::make_shared<ServiceSnapshot>();
  PublishStats stats;
  auto& views = next->roads.views_;
  views.reserve(n_roads);
  for (std::size_t r = 0; r < n_roads; ++r) {
    if (rebuilt[r] == nullptr) {
      views.push_back(prev->roads.views_[r]);
      continue;
    }
    ++stats.roads_rebuilt;
    stats.cells_rebuilt += rebuilt[r]->size();
    views.push_back(std::move(rebuilt[r]));
  }

  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    epoch = ++epoch_;
    next->epoch = epoch;
    published_ = std::move(next);
    publish_stats_ = stats;
  }
  OBS_COUNT("service.publish", 1);
  return epoch;
}

PublishStats MapService::last_publish_stats() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return publish_stats_;
}

std::shared_ptr<const ServiceSnapshot> MapService::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return published_;
}

std::uint64_t MapService::epoch() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return epoch_;
}

core::FusionAccumulator MapService::merged_accumulator(RoadId id) const {
  std::lock_guard<std::mutex> lock(shards_[shard_of(id)]->mu);
  return acc_[id];
}

RoadView MapService::merged_road_view(RoadId id) const {
  return view_of(id, merged_accumulator(id), cfg_.min_coverage);
}

void MapService::rebalance(std::size_t new_n_shards) {
  if (new_n_shards == 0) {
    throw std::invalid_argument("MapService::rebalance: n_shards >= 1");
  }
  std::lock_guard<std::mutex> publishers(publish_mu_);
  // The accumulators stay as they are; only their owners change. Per-shard
  // ingest counters restart at zero — the service-level totals are the
  // durable numbers.
  build_shards(new_n_shards);
  cfg_.n_shards = new_n_shards;
  OBS_COUNT("service.rebalance", 1);
}

std::shared_ptr<const core::RoadMatcher> MapService::matcher(
    RoadId id) const {
  Shard& owner = *shards_[shard_of(id)];
  return owner.matchers.get(network_.roads()[id].road, cfg_.match);
}

std::vector<ShardStats> MapService::shard_stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    ShardStats st;
    st.shard = shard->index;
    st.n_roads = shard->roads.size();
    st.tracks_ingested = shard->tracks_ingested;
    st.samples_ingested = shard->samples_ingested;
    for (const RoadId r : shard->roads) {
      for (const std::uint32_t c : acc_[r].coverage()) {
        if (c > 0) ++st.covered_cells;
      }
    }
    stats.push_back(st);
  }
  return stats;
}

}  // namespace rge::service

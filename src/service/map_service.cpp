#include "service/map_service.hpp"

#include <algorithm>
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

/// Deterministic tile -> shard assignment: FNV-1a over (road, tile).
/// A pure function of the identifiers — never of thread count, pool size,
/// or ingest order — so routing is reproducible everywhere.
std::uint64_t tile_hash(RoadId road, std::size_t tile) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(road);
  mix(tile);
  return h;
}

}  // namespace

/// One upload's contribution to one shard: the cell range of a single
/// tile (add_track_cells clamps to the track's actual span).
struct MapService::SubTrack {
  std::size_t upload = 0;
  RoadId road = 0;
  const core::GradeTrack* track = nullptr;
  std::size_t cell_begin = 0;
  std::size_t cell_end = 0;
};

struct MapService::Shard {
  std::size_t index;
  std::size_t n_tiles = 0;
  /// Per road (indexed by RoadId): accumulator over the FULL road grid,
  /// allocated only when this shard owns at least one of the road's
  /// tiles; cells outside owned tiles are never touched. The structure is
  /// fixed after construction — only the accumulators mutate, under mu.
  std::vector<std::unique_ptr<core::FusionAccumulator>> acc;
  /// Per road: accumulated into since publish() last gathered the marks.
  /// All set on construction, so the first publish after build_shards
  /// (construction or rebalance) rebuilds every road.
  std::vector<std::uint8_t> dirty;
  core::MatcherCache matchers;
  std::mutex mu;  ///< guards the accumulators, the marks and the counters
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
        acc(n_roads),
        dirty(n_roads, 1),
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
  if (!(cfg_.tile_length_m > 0.0) || !(cfg_.fusion.distance_step_m > 0.0)) {
    throw std::invalid_argument(
        "MapService: tile_length_m and distance_step_m must be positive");
  }
  grids_.reserve(network_.size());
  cells_per_tile_.reserve(network_.size());
  tiles_per_road_.reserve(network_.size());
  for (const auto& nr : network_.roads()) {
    const core::FusionGrid grid =
        full_road_grid(nr.road.length_m(), cfg_.fusion.distance_step_m);
    // Tile boundaries are CELL indices: tile t owns cells [t*cpt,
    // (t+1)*cpt). Splitting at cell granularity keeps every cell in
    // exactly one tile, which is what makes the sharded sums an exact
    // partition of the single-accumulator sums.
    const auto cpt = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(cfg_.tile_length_m / grid.step)));
    const std::size_t tiles = (grid.n + cpt - 1) / cpt;
    grids_.push_back(grid);
    cells_per_tile_.push_back(cpt);
    tiles_per_road_.push_back(tiles);
    n_tiles_ += tiles;
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
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    shards.push_back(std::make_unique<Shard>(s, network_.size(),
                                             cfg_.matcher_cache_capacity));
  }
  tile_shard_.assign(network_.size(), {});
  for (std::size_t r = 0; r < network_.size(); ++r) {
    tile_shard_[r].resize(tiles_per_road_[r]);
    for (std::size_t t = 0; t < tiles_per_road_[r]; ++t) {
      const auto s = static_cast<std::uint32_t>(
          tile_hash(static_cast<RoadId>(r), t) % n_shards);
      tile_shard_[r][t] = s;
      Shard& shard = *shards[s];
      ++shard.n_tiles;
      if (!shard.acc[r]) {
        shard.acc[r] = std::make_unique<core::FusionAccumulator>(
            grids_[r], cfg_.fusion);
      }
    }
  }
  shards_ = std::move(shards);
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
  return grids_[id];
}

std::size_t MapService::tiles_of(RoadId id) const {
  check_road(id);
  return tiles_per_road_[id];
}

std::size_t MapService::shard_of_tile(RoadId id, std::size_t tile) const {
  check_road(id);
  if (tile >= tiles_per_road_[id]) {
    throw std::out_of_range("MapService: tile " + std::to_string(tile) +
                            " beyond road " + std::to_string(id));
  }
  return tile_shard_[id][tile];
}

void MapService::split_upload(
    const TrackUpload& upload, std::size_t upload_index,
    std::vector<std::vector<SubTrack>>& per_shard) const {
  const core::GradeTrack& track = upload.track;
  if (track.s.empty()) {
    throw std::invalid_argument("MapService::ingest: upload without s");
  }
  const RoadId r = upload.road;
  const core::FusionGrid& grid = grids_[r];
  const std::size_t cpt = cells_per_tile_[r];
  const std::size_t tiles = tiles_per_road_[r];
  const double s0 = track.s.front();
  const double s1 = track.s.back();
  if (s1 < grid.lo || s0 > grid.hi) return;  // off-grid upload: no cells
  // Conservative tile range (one tile of slop per side): add_track_cells
  // clamps to the cells the track actually covers, so slop tiles cost an
  // O(1) no-op add, never a wrong cell. The arithmetic is a pure function
  // of (span, grid), hence deterministic.
  const double rel0 = std::max(0.0, s0 - grid.lo) / grid.step;
  const double rel1 = std::max(0.0, s1 - grid.lo) / grid.step;
  std::size_t t_lo = std::min<std::size_t>(
      tiles - 1, static_cast<std::size_t>(rel0) / cpt);
  if (t_lo > 0) --t_lo;
  const std::size_t t_hi = std::min<std::size_t>(
      tiles - 1, static_cast<std::size_t>(rel1) / cpt + 1);
  for (std::size_t t = t_lo; t <= t_hi; ++t) {
    SubTrack st;
    st.upload = upload_index;
    st.road = r;
    st.track = &track;
    st.cell_begin = t * cpt;
    st.cell_end = std::min(grid.n, (t + 1) * cpt);
    per_shard[tile_shard_[r][t]].push_back(st);
  }
}

namespace {

/// Upload samples inside the tile of cells [cb, ce): the half-open span
/// [at(cb), at(ce)), with the road's first tile reaching down to -inf and
/// its last up to +inf. A road's tiles thus partition the real line, so
/// every sample of an upload that touches the grid is counted exactly
/// once (stats only).
std::uint64_t samples_in_tile(const core::GradeTrack& track,
                              const core::FusionGrid& grid, std::size_t cb,
                              std::size_t ce) {
  const auto first =
      cb == 0 ? track.s.begin()
              : std::lower_bound(track.s.begin(), track.s.end(), grid.at(cb));
  const auto last =
      ce >= grid.n
          ? track.s.end()
          : std::lower_bound(track.s.begin(), track.s.end(), grid.at(ce));
  return first < last ? static_cast<std::uint64_t>(last - first) : 0u;
}

}  // namespace

void MapService::apply_to_shard(std::size_t s,
                                const std::vector<SubTrack>& items) {
  if (items.empty()) return;
  Shard& shard = *shards_[s];
  std::lock_guard<std::mutex> lock(shard.mu);
  std::uint64_t samples = 0;
  for (const SubTrack& st : items) {
    shard.acc[st.road]->add_track_cells(*st.track, st.cell_begin,
                                        st.cell_end);
    shard.dirty[st.road] = 1;
    samples += samples_in_tile(*st.track, grids_[st.road], st.cell_begin,
                               st.cell_end);
  }
  shard.count_ingest(items.size(), samples);
  samples_total_.fetch_add(samples, std::memory_order_relaxed);
}

void MapService::ingest(const std::vector<TrackUpload>& uploads,
                        runtime::ThreadPool* pool) {
  OBS_SPAN("service.ingest");
  std::vector<std::vector<SubTrack>> per_shard(shards_.size());
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    check_road(uploads[i].road);
    split_upload(uploads[i], i, per_shard);
  }
  // Shards run concurrently, but each shard applies its items in upload
  // order (split_upload pushed them that way), so per-cell accumulation
  // order equals upload order for ANY pool size and ANY shard count —
  // the bit-reproducibility contract.
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
  check_road(upload.road);
  std::vector<std::vector<SubTrack>> per_shard(shards_.size());
  split_upload(upload, 0, per_shard);
  // Ascending shard order (the natural iteration) keeps multi-shard lock
  // acquisition deadlock-free against concurrent callers.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    apply_to_shard(s, per_shard[s]);
  }
  OBS_COUNT("service.uploads", 1);
}

namespace {

template <typename T>
void append_run(std::vector<T>& dst, const std::vector<T>& src,
                std::size_t at, std::size_t n) {
  const auto first = src.begin() + static_cast<std::ptrdiff_t>(at);
  dst.insert(dst.end(), first, first + static_cast<std::ptrdiff_t>(n));
}

}  // namespace

std::uint64_t MapService::publish(runtime::ThreadPool* pool) {
  OBS_SPAN("service.publish");
  std::lock_guard<std::mutex> publishers(publish_mu_);
  const std::shared_ptr<const ServiceSnapshot> prev = snapshot();
  const std::size_t n_roads = network_.size();

  // Per road to rebuild: the covered-cell count of each tile (empty for
  // a road that keeps its view). Per shard: one exactly sized piece
  // holding its owned tiles' covered cells in (road, tile) order.
  std::vector<std::vector<std::size_t>> tile_cells(n_roads);
  std::vector<core::FusionAccumulator::CoverageSnapshot> pieces(
      shards_.size());
  {
    OBS_SPAN("service.publish.finalize");
    // Gather and clear every shard's marks. An upload applied after its
    // shard's gather re-marks its road, so the next publish rebuilds it;
    // one applied before the finalize below is included now and rebuilt
    // once more next epoch — redundant, but exact either way.
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (std::size_t r = 0; r < n_roads; ++r) {
        if (shard->dirty[r] == 0) continue;
        tile_cells[r].resize(tiles_per_road_[r]);
        shard->dirty[r] = 0;
      }
    }

    // Each shard finalizes only the cell ranges of its own tiles, under
    // its ingest lock: count, size the piece exactly, then fill. Cells
    // live in exactly one shard, so per-shard coverage thresholds equal
    // global ones, and each shard writes only its own tiles' counts.
    const auto finalize = [&](std::size_t s) {
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      std::size_t total = 0;
      for (std::size_t r = 0; r < n_roads; ++r) {
        const std::size_t cpt = cells_per_tile_[r];
        for (std::size_t t = 0; t < tile_cells[r].size(); ++t) {
          if (tile_shard_[r][t] != s) continue;
          tile_cells[r][t] = shard.acc[r]->count_covered(
              t * cpt, (t + 1) * cpt, cfg_.min_coverage);
          total += tile_cells[r][t];
        }
      }
      auto& piece = pieces[s];
      piece.resize(total);
      std::size_t at = 0;
      for (std::size_t r = 0; r < n_roads; ++r) {
        const std::size_t cpt = cells_per_tile_[r];
        for (std::size_t t = 0; t < tile_cells[r].size(); ++t) {
          if (tile_shard_[r][t] != s) continue;
          at = shard.acc[r]->finalize_covered(t * cpt, (t + 1) * cpt,
                                              cfg_.min_coverage, piece, at);
        }
      }
    };
    if (pool != nullptr) {
      runtime::parallel_for(*pool, shards_.size(), finalize);
    } else {
      for (std::size_t s = 0; s < shards_.size(); ++s) finalize(s);
    }
  }

  // Stitch without locks (ingest proceeds): walking a rebuilt road's
  // tiles in order yields its cells in ascending order, and tile t's
  // cells are the next run of its owner shard's piece. Every other road
  // shares the previous snapshot's view object.
  auto next = std::make_shared<ServiceSnapshot>();
  PublishStats stats;
  {
    OBS_SPAN("service.publish.stitch");
    auto& views = next->roads.views_;
    views.reserve(n_roads);
    std::vector<std::size_t> cursor(shards_.size(), 0);
    for (std::size_t r = 0; r < n_roads; ++r) {
      const std::vector<std::size_t>& counts = tile_cells[r];
      if (counts.empty()) {
        views.push_back(prev->roads.views_[r]);
        continue;
      }
      ++stats.roads_rebuilt;
      auto rebuilt = std::make_shared<RoadView>();
      RoadView& view = *rebuilt;
      views.push_back(std::move(rebuilt));
      view.road = static_cast<RoadId>(r);
      std::size_t total = 0;
      for (const std::size_t n : counts) total += n;
      stats.cells_rebuilt += total;
      if (total == 0) continue;
      view.cells.reserve(total);
      view.coverage.reserve(total);
      view.track.source = "map-service";
      view.track.t.reserve(total);
      view.track.s.reserve(total);
      view.track.grade.reserve(total);
      view.track.grade_var.reserve(total);
      view.track.speed.reserve(total);
      for (std::size_t t = 0; t < counts.size(); ++t) {
        const std::size_t n = counts[t];
        if (n == 0) continue;
        const std::uint32_t s = tile_shard_[r][t];
        const auto& piece = pieces[s];
        const std::size_t at = cursor[s];
        append_run(view.cells, piece.cells, at, n);
        append_run(view.coverage, piece.coverage, at, n);
        append_run(view.track.t, piece.track.t, at, n);
        append_run(view.track.s, piece.track.s, at, n);
        append_run(view.track.grade, piece.track.grade, at, n);
        append_run(view.track.grade_var, piece.track.grade_var, at, n);
        append_run(view.track.speed, piece.track.speed, at, n);
        cursor[s] = at + n;
      }
    }
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
  check_road(id);
  core::FusionAccumulator out(grids_[id], cfg_.fusion);
  // Tiles partition cells, so each cell's sums are nonzero in exactly one
  // shard; adding the other shards' zeros is exact (x + 0 == x in IEEE
  // arithmetic for finite x), making the merge order irrelevant bit-wise.
  for (const auto& shard : shards_) {
    if (!shard->acc[id]) continue;
    std::lock_guard<std::mutex> lock(shard->mu);
    out.merge(*shard->acc[id]);
  }
  return out;
}

RoadView MapService::merged_road_view(RoadId id) const {
  const core::FusionAccumulator merged = merged_accumulator(id);
  auto snap = merged.snapshot_covered(cfg_.min_coverage);
  RoadView view;
  view.road = id;
  view.track = std::move(snap.track);
  view.track.source = "map-service";
  view.cells = std::move(snap.cells);
  view.coverage = std::move(snap.coverage);
  return view;
}

void MapService::rebalance(std::size_t new_n_shards) {
  if (new_n_shards == 0) {
    throw std::invalid_argument("MapService::rebalance: n_shards >= 1");
  }
  std::lock_guard<std::mutex> publishers(publish_mu_);
  // Exact redistribution: per road, merge the old shards into one
  // accumulator (cells are disjoint across shards, so this is bit-exact),
  // then seed each new shard's accumulator with the cell ranges of the
  // tiles it now owns. Per-shard ingest counters restart at zero — the
  // service-level totals are the durable numbers.
  std::vector<core::FusionAccumulator> merged;
  merged.reserve(network_.size());
  for (std::size_t r = 0; r < network_.size(); ++r) {
    merged.push_back(merged_accumulator(static_cast<RoadId>(r)));
  }
  build_shards(new_n_shards);
  cfg_.n_shards = new_n_shards;
  for (std::size_t r = 0; r < network_.size(); ++r) {
    const std::size_t cpt = cells_per_tile_[r];
    for (std::size_t t = 0; t < tiles_per_road_[r]; ++t) {
      Shard& shard = *shards_[tile_shard_[r][t]];
      shard.acc[r]->merge_cells(merged[r], t * cpt,
                                std::min(grids_[r].n, (t + 1) * cpt));
    }
  }
  OBS_COUNT("service.rebalance", 1);
}

std::shared_ptr<const core::RoadMatcher> MapService::matcher(
    RoadId id) const {
  check_road(id);
  Shard& home = *shards_[shard_of_tile(id, 0)];
  return home.matchers.get(network_.roads()[id].road, cfg_.match);
}

std::vector<ShardStats> MapService::shard_stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    ShardStats st;
    st.shard = shard->index;
    st.n_tiles = shard->n_tiles;
    st.tracks_ingested = shard->tracks_ingested;
    st.samples_ingested = shard->samples_ingested;
    for (std::size_t r = 0; r < network_.size(); ++r) {
      if (!shard->acc[r]) continue;
      ++st.n_roads;
      for (const std::uint32_t c : shard->acc[r]->coverage()) {
        if (c > 0) ++st.covered_cells;
      }
    }
    stats.push_back(st);
  }
  return stats;
}

}  // namespace rge::service

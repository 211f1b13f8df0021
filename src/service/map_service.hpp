// Sharded city-scale map service: the ingest/serve layer on top of the
// streaming FusionAccumulator and the cached RoadMatcher.
//
// The paper's end goal is a crowd-sourced road-gradient map serving whole
// road networks. One process-wide lock over the map does not survive that
// scale: every upload would serialize on it, and a snapshot would block
// ingest for the whole map. The cloud fusion (Eq. 6) is a sum per road, so
// MapService shards by road: each road has one FusionAccumulator over its
// full grid, owned by shard road_hash(road) % n_shards, and each shard has
// its own lock, dirty marks, MatcherCache and counters. An upload touches
// exactly one road, so it is applied whole, under one shard lock, and
// every cell's sums see the uploads in upload order on one accumulator —
// published maps are bit-identical to single-accumulator serial fusion for
// any shard count and any pool size, by construction.
//
// Serving is epoch/double-buffered: publish() rebuilds the views of the
// roads ingested into since the previous publish (each shard marks the
// roads it accumulates into), shares every other road's view with the
// previous snapshot (one shared_ptr per road, no copy), and swaps the
// result in under a pointer lock held O(1). Each shard turns its dirty
// roads into new views under one hold of its lock. Readers grab the
// current snapshot with snapshot() and keep reading it (shared_ptr-pinned)
// while ingest and the next publish proceed. Rebalancing to a different
// shard count re-homes each road's accumulator on its new owner (no sums
// are copied or merged) and marks every road for the next publish.
//
// Determinism rules (pinned by tests/test_map_service):
//  * ingest() buckets whole uploads by owner shard in upload order, so
//    per-cell accumulation order equals upload order regardless of shard
//    count or pool size — published maps are bit-identical across 1/2/8
//    threads and 1/4/16 shards;
//  * the road -> shard map is a pure function of the road id and the
//    shard count, never of thread count or ingest order;
//  * ingest_one() is thread-safe (per-shard locking) but concurrent
//    streaming callers race for upload order; use ingest() batches when
//    bit-reproducibility matters.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <vector>

#include "core/road_matcher.hpp"
#include "core/track_fusion.hpp"
#include "road/network.hpp"

namespace rge::runtime {
class ThreadPool;
}

namespace rge::service {

/// Index of a road within the service's network (construction order).
using RoadId = std::uint32_t;

struct MapServiceConfig {
  /// Number of shards roads are hashed onto. >= 1.
  std::size_t n_shards = 4;
  /// Unused: roads are not split, so nothing reads this. Kept only so
  /// existing callers that assign it still compile.
  double tile_length_m = 2000.0;
  /// Fusion settings for every per-road accumulator (distance_step_m is
  /// the serving grid's cell size).
  core::FusionConfig fusion;
  /// Map-matching settings for the per-shard matcher caches.
  core::MapMatchConfig match;
  /// Capacity of each shard's MatcherCache.
  std::size_t matcher_cache_capacity = 8;
  /// Serving threshold: cells covered by fewer tracks are left out of
  /// published snapshots (min 1 — a partially covered city grid still
  /// serves what it has).
  std::uint32_t min_coverage = 1;
};

/// One gradient-track upload, keyed by road odometry (track.s is arc
/// length along the road, e.g. after rekey_track_by_road).
struct TrackUpload {
  RoadId road = 0;
  core::GradeTrack track;
};

/// Served view of one road: the covered cells of its fusion grid.
struct RoadView {
  RoadId road = 0;
  core::GradeTrack track;               ///< covered cells, ascending s
  std::vector<std::size_t> cells;       ///< grid cell index per sample
  std::vector<std::uint32_t> coverage;  ///< contributing tracks per sample

  std::size_t size() const { return cells.size(); }
};

/// Read-only sequence of road views indexed by RoadId. It reads like a
/// const std::vector<RoadView> (size(), operator[], range-for), but holds
/// each view through a shared_ptr: publish() hands an unchanged road's
/// view on to the next snapshot instead of copying it, so consecutive
/// snapshots share every view an epoch did not rebuild.
class RoadViews {
  using Ptr = std::shared_ptr<const RoadView>;

 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = RoadView;
    using difference_type = std::ptrdiff_t;
    using pointer = const RoadView*;
    using reference = const RoadView&;

    const_iterator() = default;
    reference operator*() const { return **it_; }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) { return const_iterator(it_++); }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class RoadViews;
    explicit const_iterator(std::vector<Ptr>::const_iterator it) : it_(it) {}
    std::vector<Ptr>::const_iterator it_;
  };

  std::size_t size() const { return views_.size(); }
  const RoadView& operator[](std::size_t road) const { return *views_[road]; }
  const_iterator begin() const { return const_iterator(views_.begin()); }
  const_iterator end() const { return const_iterator(views_.end()); }

 private:
  friend class MapService;
  std::vector<Ptr> views_;
};

/// Immutable published map: one RoadView per road (empty view when
/// nothing is covered yet). Readers hold it via shared_ptr; it never
/// changes after publish. A view the next publish did not rebuild is the
/// same object in both snapshots.
struct ServiceSnapshot {
  std::uint64_t epoch = 0;
  RoadViews roads;  ///< indexed by RoadId
};

/// Ingest-side counters of one shard (mirrored into per-shard obs
/// counters `service.shard<k>.*` when the observability layer is on).
struct ShardStats {
  std::size_t shard = 0;
  std::size_t n_roads = 0;             ///< roads this shard owns
  std::uint64_t tracks_ingested = 0;   ///< uploads applied to its roads
  std::uint64_t samples_ingested = 0;  ///< samples of those uploads
  std::uint64_t covered_cells = 0;     ///< cells with coverage >= 1
};

/// Work of one publish(): the roads it rebuilt from the shards and the
/// covered cells of those roads (every other road's view was shared).
struct PublishStats {
  std::size_t roads_rebuilt = 0;
  std::size_t cells_rebuilt = 0;
};

class MapService {
 public:
  /// Builds every road's (empty) accumulator and the shards up front, so
  /// ingest never mutates the shard structure.
  /// @throws std::invalid_argument on an empty network, n_shards == 0, or
  /// a non-positive fusion step.
  MapService(road::RoadNetwork network, MapServiceConfig cfg = {});
  ~MapService();

  MapService(const MapService&) = delete;
  MapService& operator=(const MapService&) = delete;

  std::size_t n_shards() const { return shards_.size(); }
  std::size_t n_roads() const { return network_.size(); }
  const MapServiceConfig& config() const { return cfg_; }
  const road::Road& road(RoadId id) const;
  const core::FusionGrid& grid(RoadId id) const;
  /// The shard that owns a road: road_hash(id) % n_shards().
  /// @throws std::out_of_range on an unknown road.
  std::size_t shard_of(RoadId id) const;

  /// Deterministic batch ingest: routes every upload whole to its road's
  /// shard and applies each shard's uploads in upload order (shards run
  /// concurrently on the pool when given). An upload whose odometry misses
  /// its road's grid is skipped. Published maps after publish() are
  /// bit-identical for any pool size and any shard count.
  /// @throws std::out_of_range on an unknown road id, and
  /// std::invalid_argument on an upload without odometry, before any
  /// upload is applied.
  void ingest(const std::vector<TrackUpload>& uploads,
              runtime::ThreadPool* pool = nullptr);

  /// Thread-safe streaming ingest of a single upload (locks only its
  /// road's shard). Concurrent callers race for per-cell accumulation
  /// order — deterministic only from a single thread.
  void ingest_one(const TrackUpload& upload);

  /// Publish a new snapshot (epoch + 1) and swap it in. Only the roads
  /// ingested into since the previous publish are rebuilt from their
  /// accumulators (every road after construction or rebalance); every
  /// other road's view is the previous snapshot's view object, which is
  /// bit-identical to rebuilding it. Ingest proceeds concurrently except
  /// for the brief per-shard finalize (on the pool when given);
  /// an upload that lands during the publish is rebuilt again by the
  /// next one, so none is lost. Readers are never blocked: they keep the
  /// previous buffer until the O(1) pointer swap. Returns the new epoch.
  std::uint64_t publish(runtime::ThreadPool* pool = nullptr);

  /// What the most recent publish() rebuilt (zeros before the first).
  PublishStats last_publish_stats() const;

  /// The latest published map (epoch 0 / empty views before the first
  /// publish). O(1): a shared_ptr copy under a pointer mutex.
  std::shared_ptr<const ServiceSnapshot> snapshot() const;
  std::uint64_t epoch() const;

  /// A copy of the road's accumulator, taken under its owner shard's
  /// lock. The audit path.
  core::FusionAccumulator merged_accumulator(RoadId id) const;
  /// merged_accumulator finalized to the served view of one road.
  RoadView merged_road_view(RoadId id) const;

  /// Re-partition onto a different shard count: every road's accumulator
  /// moves to its new owner unchanged (published maps before and after are
  /// bit-identical). NOT safe concurrently with ingest_one / ingest /
  /// publish — quiesce writers first.
  void rebalance(std::size_t new_n_shards);

  /// The road's matcher served from its owner shard's cache (thread-safe).
  std::shared_ptr<const core::RoadMatcher> matcher(RoadId id) const;

  /// Per-shard counters restart at zero on rebalance() (roads move to
  /// different shards, so the old attribution is meaningless).
  std::vector<ShardStats> shard_stats() const;
  /// Durable service-level ingest total: every sample of every upload
  /// whose odometry touches its road's grid, counted once. Unlike the
  /// per-shard stats this survives rebalance(), so conservation checks
  /// (samples in == samples accounted) hold across any re-sharding
  /// schedule.
  std::uint64_t total_samples_ingested() const {
    return samples_total_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard;

  /// Whether the upload's odometry touches its road's grid (an upload
  /// that misses it adds nothing and is not counted).
  /// @throws std::invalid_argument on an upload without odometry.
  bool on_grid(const TrackUpload& upload) const;
  /// Add one shard's uploads, in order, under its lock and book the
  /// tracks and samples they carry (no-op for an empty list).
  void apply_to_shard(std::size_t s,
                      const std::vector<const TrackUpload*>& uploads);
  void check_road(RoadId id) const;
  void build_shards(std::size_t n_shards);

  road::RoadNetwork network_;
  MapServiceConfig cfg_;
  /// Per road: its accumulator over the road's full grid. The sums are
  /// guarded by the owner shard's lock; the grid never changes.
  std::vector<core::FusionAccumulator> acc_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> samples_total_{0};  ///< rebalance-durable

  mutable std::mutex publish_mu_;  ///< serializes publishers/rebalance
  mutable std::mutex snap_mu_;     ///< guards the published pointer only
  std::shared_ptr<const ServiceSnapshot> published_;
  std::uint64_t epoch_ = 0;  ///< guarded by snap_mu_
  PublishStats publish_stats_;  ///< guarded by snap_mu_
};

}  // namespace rge::service

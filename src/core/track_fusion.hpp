// Track fusion (paper Section III-C3, Eq. 6): the basic convex combination
// of N gradient tracks weighted by their inverse EKF error covariances,
//   theta_bar = U * sum_k P_k^{-1} theta_k,   U = (sum_k P_k^{-1})^{-1}.
// Tracks are assumed cross-covariance free (independent sensors), which is
// why the paper selects the basic convex combination [23].
//
// Two fusion domains are provided:
//  * time domain  — tracks from one vehicle share a clock; fused per sample
//    on a reference timeline;
//  * distance domain — tracks from different vehicles/trips share only the
//    road; fused on a common arc-length grid (the "cloud" fusion the paper
//    sketches for crowd-sourced gradient maps).
//
// Cloud-scale serving additionally gets a streaming form: because Eq. 6 is
// a ratio of per-track sums, the cloud does not need to keep every track.
// FusionAccumulator holds the running sums per grid cell; a new upload
// costs O(track length) (one monotone interpolation cursor pass), and
// snapshot() reproduces fuse_tracks_distance bit-for-bit on the cells all
// contributors cover.
//
// Every fuser here walks tracks with monotone math::InterpCursor passes;
// the per-sample binary-search oracle in tests/oracles/track_fusion.hpp
// pins them bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/grade_ekf.hpp"

namespace rge::runtime {
class ThreadPool;
}  // namespace rge::runtime

namespace rge::core {

struct FusionConfig {
  /// Variance floor to keep near-zero covariances from dominating (rad^2).
  double min_variance = 1e-8;
  /// Resampling step for distance-domain fusion (m); must be positive.
  double distance_step_m = 5.0;
  /// Time constant (s) for exponential eviction of stale contributions in
  /// FusionAccumulator: contributions are down-weighted by
  /// exp(-age / decay_tau_s), where age is measured per cell against the
  /// newest contribution's *sample* time (never wall clock — see
  /// DESIGN.md determinism rules). 0 (the default) disables decay; the
  /// disabled path is bit-identical to an accumulator without the
  /// feature. Only FusionAccumulator honors this; the batch
  /// fuse_tracks_* functions fuse one coherent upload set and ignore it.
  double decay_tau_s = 0.0;

  bool operator==(const FusionConfig&) const = default;
};

/// Integer-indexed resampling grid over [lo, hi]. Samples sit at
/// lo + i*step with the final sample pinned exactly to hi, so long routes
/// neither drift (no floating-point accumulation) nor silently drop the
/// overlap endpoint.
struct FusionGrid {
  double lo = 0.0;
  double hi = 0.0;
  double step = 0.0;
  std::size_t n = 0;

  double at(std::size_t i) const {
    return i + 1 == n ? hi : lo + static_cast<double>(i) * step;
  }

  bool operator==(const FusionGrid&) const = default;
};

/// Grid spanning the overlap of all tracks' odometry ranges with spacing
/// cfg.distance_step_m. This is the grid fuse_tracks_distance fuses on.
/// @throws std::invalid_argument on no tracks, non-positive step, a track
/// without odometry, or an empty overlap.
FusionGrid make_overlap_grid(const std::vector<GradeTrack>& tracks,
                             const FusionConfig& cfg);

/// Streaming distance-domain fusion state: per grid cell, the running
/// inverse-variance weight sum and the weighted grade / speed / time sums
/// of every track added so far. Adding an upload is O(track length + cells
/// it covers) — independent of how many tracks came before — versus
/// re-running fuse_tracks_distance over the whole fleet, which is
/// O(fleet x grid).
///
/// Determinism rules:
///  * add_track accumulates cells in ascending order with one monotone
///    cursor, reproducing fuse_distance_sample's arithmetic exactly; after
///    adding tracks 0..N-1 in order, snapshot() is bit-identical to
///    fuse_tracks_distance on the same grid.
///  * merge() adds the other accumulator's sums cell-wise; merging
///    partials in a fixed order is deterministic, but the float grouping
///    differs from serial adds, so parallel fills agree with serial only
///    to rounding (add_tracks_parallel is self-deterministic for any
///    thread count because its chunking is fixed, not thread-dependent).
///
/// Time-decayed eviction (cfg.decay_tau_s > 0): per cell, the stored sums
/// are kept decayed to the newest contribution's sample time ref_t. A
/// newer contribution first scales the existing sums by
/// exp(-(t_new - ref_t)/tau) and advances ref_t; an older one is itself
/// down-weighted by exp(-(ref_t - t_old)/tau). Because the decay factor
/// is a pure function of contribution sample times, and because each
/// cell's operations happen in upload order regardless of shard x thread
/// layout (roads are shard-exclusive in the map service), decayed maps
/// stay bit-reproducible across layouts. Snapshot ratios are unchanged
/// for a single-epoch fleet (scaling every contribution by the same
/// factor cancels in sum-of-weighted / sum-of-weights); decay only
/// re-weights *across* epochs, which is exactly the repaving semantics.
/// With decay_tau_s == 0 every code path below is bit-identical to the
/// pre-decay accumulator.
class FusionAccumulator {
 public:
  explicit FusionAccumulator(const FusionGrid& grid,
                             const FusionConfig& cfg = {});

  /// Fold one gradient track into the running sums. Cells outside the
  /// track's odometry range are untouched (tracked via coverage), so a
  /// city-wide grid can absorb trips over any sub-span of the route.
  /// @throws std::invalid_argument on an empty or malformed track.
  void add_track(const GradeTrack& track);

  /// add_track for each track, in order.
  void add_tracks(const std::vector<GradeTrack>& tracks);

  /// Fold a batch of tracks using the pool: tracks are partitioned into
  /// fixed-size chunks, each chunk fills an independent partial
  /// accumulator, and partials merge in chunk order. The chunking does not
  /// depend on the pool size, so the result is bit-identical across
  /// 1/2/N-thread pools (and near-identical to the serial add_tracks —
  /// same sums, different float grouping). Records a
  /// fusion.add_tracks_parallel span.
  void add_tracks_parallel(const std::vector<GradeTrack>& tracks,
                           runtime::ThreadPool& pool);

  /// Cell-wise sum of another accumulator over the same grid and config
  /// (with decay on, each cell's two sides are first aged to the newer
  /// reference time). The combine step of add_tracks_parallel.
  /// @throws std::invalid_argument on grid or config mismatch, naming the
  /// mismatching field (spacing / origin / length / min_variance /
  /// distance_step_m / decay_tau_s) so failures are diagnosable.
  void merge(const FusionAccumulator& other);

  /// Finalize Eq. 6 over the contiguous run of cells covered by every
  /// track added so far. On the overlap grid of the same tracks this is
  /// bit-identical to fuse_tracks_distance.
  /// @throws std::invalid_argument if no cell is covered by all tracks.
  GradeTrack snapshot() const;

  /// Sparse-coverage snapshot: the cells with coverage >= min_coverage,
  /// finalized per cell over the tracks that actually covered it (t is
  /// the mean traversal time of those tracks). Unlike snapshot(), this
  /// never throws on partial coverage — a city grid fed by partial trips
  /// returns whatever is covered (possibly nothing). When every track
  /// added covers every selected cell (min_coverage == tracks_added() on
  /// an overlap grid), the result is bit-identical to snapshot() /
  /// fuse_tracks_distance on those cells.
  ///
  /// The returned track's `s` is strictly increasing but `t` is NOT
  /// guaranteed monotone across coverage changes (different cells average
  /// different track subsets), so the result intentionally skips the full
  /// GradeTrack::validate() contract; `cells` maps each sample back to
  /// its grid cell index and `coverage` reports the per-cell contributor
  /// count. Every array is sized exactly. The map service serves each
  /// road's view from it.
  /// @throws std::invalid_argument if min_coverage == 0.
  struct CoverageSnapshot {
    GradeTrack track;
    std::vector<std::size_t> cells;
    std::vector<std::uint32_t> coverage;

    std::size_t size() const { return cells.size(); }
  };
  CoverageSnapshot snapshot_covered(std::uint32_t min_coverage = 1) const;

  const FusionGrid& grid() const { return grid_; }
  const FusionConfig& config() const { return cfg_; }
  std::size_t tracks_added() const { return tracks_added_; }
  /// Number of tracks that covered each cell.
  std::span<const std::uint32_t> coverage() const { return coverage_; }

 private:
  bool decay_enabled() const { return cfg_.decay_tau_s > 0.0; }
  /// Decay-path cell update: returns the weight evicted from the cell
  /// (for the fusion.decayed_weight counter).
  double add_cell_decayed(std::size_t i, double w, double g, double v,
                          double tc);

  FusionGrid grid_;
  FusionConfig cfg_;
  std::size_t tracks_added_ = 0;
  std::vector<double> weight_sum_;  ///< sum_k d_k/max(min_var, P_k)
  std::vector<double> grade_sum_;   ///< sum_k d_k theta_k / P_k
  std::vector<double> speed_sum_;   ///< sum_k d_k v_k / P_k
  std::vector<double> t_sum_;       ///< sum_k d_k t_k (d_k == 1 w/o decay)
  std::vector<std::uint32_t> coverage_;
  // Decay-only state (empty when cfg_.decay_tau_s == 0): per-cell
  // reference sample time of the stored sums, and the decayed
  // contribution count sum_k d_k (the divisor for the decayed mean
  // traversal time; equals coverage_ when decay is off).
  std::vector<double> ref_t_;
  std::vector<double> decayed_count_;
};

/// Fuse tracks on the timeline of `tracks[reference]`. Each other track is
/// linearly interpolated onto that timeline. Requires >= 1 track; a single
/// track is returned unchanged (with source renamed "fused").
GradeTrack fuse_tracks_time(const std::vector<GradeTrack>& tracks,
                            std::size_t reference = 0,
                            const FusionConfig& cfg = {});

/// Fuse tracks on a common arc-length grid spanning the overlap of all
/// tracks' odometry ranges. Useful for multi-vehicle cloud fusion. The
/// grid is integer-indexed (sample i sits at lo + i*step) and the final
/// sample is pinned exactly to the overlap end, so long routes neither
/// accumulate floating-point drift nor drop the endpoint. Fused speed and
/// time are interpolated from the member tracks (inverse-variance weighted
/// speed; mean traversal time), keeping GradeTrack invariants intact.
GradeTrack fuse_tracks_distance(const std::vector<GradeTrack>& tracks,
                                const FusionConfig& cfg = {});

/// Cloud-fusion entry point of the batch runtime: same grid and arithmetic
/// as fuse_tracks_distance but grid cells are filled in parallel on the
/// pool in contiguous chunks (each cell's sums still accumulate in track
/// order, so the output is bit-identical to the serial function). Records
/// a fusion.distance_batch span.
GradeTrack fuse_tracks_distance_batch(const std::vector<GradeTrack>& tracks,
                                      const FusionConfig& cfg,
                                      runtime::ThreadPool& pool);

/// Scalar Eq. 6 helper: inverse-variance weighted mean. Returns
/// {theta_bar, fused_variance}. Sizes must match and be nonzero.
std::pair<double, double> convex_combine(std::span<const double> thetas,
                                         std::span<const double> variances,
                                         double min_variance = 1e-8);

}  // namespace rge::core

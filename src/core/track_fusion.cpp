#include "core/track_fusion.hpp"

#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "math/interp.hpp"
#include "runtime/thread_pool.hpp"

namespace rge::core {

std::pair<double, double> convex_combine(std::span<const double> thetas,
                                         std::span<const double> variances,
                                         double min_variance) {
  if (thetas.size() != variances.size() || thetas.empty()) {
    throw std::invalid_argument("convex_combine: bad inputs");
  }
  double weight_sum = 0.0;
  double weighted = 0.0;
  for (std::size_t k = 0; k < thetas.size(); ++k) {
    const double p = std::max(min_variance, variances[k]);
    weight_sum += 1.0 / p;
    weighted += thetas[k] / p;
  }
  return {weighted / weight_sum, 1.0 / weight_sum};
}

namespace {

double lerp_at(const math::InterpPos& p, const std::vector<double>& vals) {
  return vals[p.lo] * (1.0 - p.f) + vals[p.hi] * p.f;
}

GradeTrack make_fused_shell(std::size_t n) {
  GradeTrack fused;
  fused.source = "fused-distance";
  fused.t.resize(n);
  fused.grade.resize(n);
  fused.grade_var.resize(n);
  fused.speed.resize(n);
  fused.s.resize(n);
  return fused;
}

void check_track_shape(const GradeTrack& tr, const char* who) {
  if (tr.s.empty()) {
    throw std::invalid_argument(std::string(who) + ": track without s");
  }
  const std::size_t n = tr.s.size();
  if (tr.t.size() != n || tr.grade.size() != n || tr.grade_var.size() != n ||
      tr.speed.size() != n) {
    throw std::invalid_argument(std::string(who) +
                                ": track arrays have mismatched sizes");
  }
}

/// Fill fused cells [begin, end) on the grid, track-major: for each track
/// one monotone cursor sweeps the ascending cell positions, accumulating
/// into chunk-local sums. Per cell the += order is track order — the same
/// order as the per-cell loop of the binary-search oracle in
/// tests/oracles/track_fusion — so serial, chunked-parallel, and
/// accumulator-streamed fills all finalize to bit-identical values.
void fuse_distance_range(const std::vector<GradeTrack>& tracks,
                         const FusionConfig& cfg, const FusionGrid& grid,
                         std::size_t begin, std::size_t end,
                         GradeTrack& fused) {
  const std::size_t m = end - begin;
  std::vector<double> weight_sum(m, 0.0);
  std::vector<double> grade_sum(m, 0.0);
  std::vector<double> speed_sum(m, 0.0);
  std::vector<double> t_sum(m, 0.0);
  for (const GradeTrack& tr : tracks) {
    math::InterpCursor cursor;
    const std::span<const double> keys{tr.s.data(), tr.s.size()};
    for (std::size_t i = begin; i < end; ++i) {
      const math::InterpPos pos = cursor.advance(keys, grid.at(i));
      const double p = std::max(cfg.min_variance, lerp_at(pos, tr.grade_var));
      const double w = 1.0 / p;
      weight_sum[i - begin] += w;
      grade_sum[i - begin] += lerp_at(pos, tr.grade) * w;
      // Speed is a real kinematic signal: interpolate it from the members
      // with the same inverse-variance weights as the grade (satisfies the
      // GradeTrack invariant instead of the old 0.0 placeholder).
      speed_sum[i - begin] += lerp_at(pos, tr.speed) * w;
      // Mean traversal time across contributing trips. Unweighted, so the
      // sum of per-track non-decreasing t(s) stays non-decreasing.
      t_sum[i - begin] += lerp_at(pos, tr.t);
    }
  }
  const auto n_tracks = static_cast<double>(tracks.size());
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t j = i - begin;
    fused.s[i] = grid.at(i);
    fused.grade[i] = grade_sum[j] / weight_sum[j];
    fused.grade_var[i] = 1.0 / weight_sum[j];
    fused.speed[i] = speed_sum[j] / weight_sum[j];
    fused.t[i] = t_sum[j] / n_tracks;
  }
}

}  // namespace

FusionGrid make_overlap_grid(const std::vector<GradeTrack>& tracks,
                             const FusionConfig& cfg) {
  if (tracks.empty()) {
    throw std::invalid_argument("fuse_tracks_distance: no tracks");
  }
  if (!(cfg.distance_step_m > 0.0)) {
    throw std::invalid_argument(
        "fuse_tracks_distance: distance_step_m must be positive");
  }
  FusionGrid grid;
  grid.lo = -std::numeric_limits<double>::infinity();
  grid.hi = std::numeric_limits<double>::infinity();
  for (const auto& tr : tracks) {
    if (tr.s.empty()) {
      throw std::invalid_argument("fuse_tracks_distance: track without s");
    }
    grid.lo = std::max(grid.lo, tr.s.front());
    grid.hi = std::min(grid.hi, tr.s.back());
  }
  if (!(grid.hi > grid.lo)) {
    throw std::invalid_argument(
        "fuse_tracks_distance: tracks do not overlap in distance");
  }
  grid.step = cfg.distance_step_m;
  const auto whole_steps = static_cast<std::size_t>(
      std::floor((grid.hi - grid.lo) / grid.step));
  // Regular samples lo + {0..whole_steps}*step, plus hi when the span is
  // not an exact multiple of step. If it is (within fp slack), the last
  // regular sample is replaced by exact hi via FusionGrid::at.
  const bool exact =
      grid.lo + static_cast<double>(whole_steps) * grid.step >=
      grid.hi - 1e-9 * grid.step;
  grid.n = whole_steps + 1 + (exact ? 0 : 1);
  return grid;
}

// ------------------------------------------------- FusionAccumulator ----

FusionAccumulator::FusionAccumulator(const FusionGrid& grid,
                                     const FusionConfig& cfg)
    : grid_(grid), cfg_(cfg) {
  if (grid_.n == 0 || !(grid_.step > 0.0) || !(grid_.hi >= grid_.lo)) {
    throw std::invalid_argument("FusionAccumulator: malformed grid");
  }
  weight_sum_.assign(grid_.n, 0.0);
  grade_sum_.assign(grid_.n, 0.0);
  speed_sum_.assign(grid_.n, 0.0);
  t_sum_.assign(grid_.n, 0.0);
  coverage_.assign(grid_.n, 0);
  if (decay_enabled()) {
    ref_t_.assign(grid_.n, 0.0);
    decayed_count_.assign(grid_.n, 0.0);
  }
}

double FusionAccumulator::add_cell_decayed(std::size_t i, double w, double g,
                                           double v, double tc) {
  // Sums are stored decayed to ref_t_[i]; the decay factor depends only
  // on contribution sample times, never on wall clock.
  const double tau = cfg_.decay_tau_s;
  if (coverage_[i] == 0) {
    ref_t_[i] = tc;
    weight_sum_[i] = w;
    grade_sum_[i] = g * w;
    speed_sum_[i] = v * w;
    t_sum_[i] = tc;
    decayed_count_[i] = 1.0;
    return 0.0;
  }
  if (tc >= ref_t_[i]) {
    // Newer contribution: age the existing sums up to tc, add at weight 1.
    const double d = std::exp(-(tc - ref_t_[i]) / tau);
    const double evicted = weight_sum_[i] * (1.0 - d);
    weight_sum_[i] = weight_sum_[i] * d + w;
    grade_sum_[i] = grade_sum_[i] * d + g * w;
    speed_sum_[i] = speed_sum_[i] * d + v * w;
    t_sum_[i] = t_sum_[i] * d + tc;
    decayed_count_[i] = decayed_count_[i] * d + 1.0;
    ref_t_[i] = tc;
    return evicted;
  }
  // Older contribution (late upload): it arrives already aged.
  const double da = std::exp(-(ref_t_[i] - tc) / tau);
  weight_sum_[i] += w * da;
  grade_sum_[i] += g * w * da;
  speed_sum_[i] += v * w * da;
  t_sum_[i] += tc * da;
  decayed_count_[i] += da;
  return w * (1.0 - da);
}

void FusionAccumulator::add_track(const GradeTrack& track) {
  OBS_SPAN("fusion.add_track");
  OBS_COUNT("fusion.add_track", 1);
  check_track_shape(track, "FusionAccumulator::add_track");

  const double front = track.s.front();
  const double back = track.s.back();
  // Covered cells: grid positions inside [front, back]. Boundary cells hit
  // the clamped ends of the interpolation (f == 0), exactly as a
  // binary-search locate() would.
  std::size_t i_lo = grid_.n;
  std::size_t i_hi = grid_.n;  // exclusive
  if (back >= grid_.lo && front <= grid_.hi) {
    // Seed with arithmetic, settle with exact comparisons on grid.at (the
    // authoritative cell positions, endpoint pinned to hi).
    i_lo = 0;
    if (front > grid_.lo) {
      const double approx = std::ceil((front - grid_.lo) / grid_.step);
      i_lo = approx <= 0.0
                 ? 0
                 : std::min(grid_.n - 1, static_cast<std::size_t>(approx));
      while (i_lo > 0 && grid_.at(i_lo - 1) >= front) --i_lo;
      while (i_lo < grid_.n && grid_.at(i_lo) < front) ++i_lo;
    }
    i_hi = grid_.n;
    if (back < grid_.hi) {
      const double approx = std::floor((back - grid_.lo) / grid_.step) + 1.0;
      i_hi = approx <= 0.0
                 ? 0
                 : std::min(grid_.n, static_cast<std::size_t>(approx));
      while (i_hi < grid_.n && grid_.at(i_hi) <= back) ++i_hi;
      while (i_hi > 0 && grid_.at(i_hi - 1) > back) --i_hi;
    }
  }

  math::InterpCursor cursor;
  const std::span<const double> keys{track.s.data(), track.s.size()};
  if (!decay_enabled()) {
    for (std::size_t i = i_lo; i < i_hi; ++i) {
      const math::InterpPos pos = cursor.advance(keys, grid_.at(i));
      const double p =
          std::max(cfg_.min_variance, lerp_at(pos, track.grade_var));
      const double w = 1.0 / p;
      weight_sum_[i] += w;
      grade_sum_[i] += lerp_at(pos, track.grade) * w;
      speed_sum_[i] += lerp_at(pos, track.speed) * w;
      t_sum_[i] += lerp_at(pos, track.t);
      ++coverage_[i];
    }
  } else {
    double evicted = 0.0;
    for (std::size_t i = i_lo; i < i_hi; ++i) {
      const math::InterpPos pos = cursor.advance(keys, grid_.at(i));
      const double p =
          std::max(cfg_.min_variance, lerp_at(pos, track.grade_var));
      evicted += add_cell_decayed(i, 1.0 / p, lerp_at(pos, track.grade),
                                  lerp_at(pos, track.speed),
                                  lerp_at(pos, track.t));
      ++coverage_[i];
    }
    // Weight evicted by aging, in milli-units (inverse rad^2 weights are
    // typically O(1e4-1e8); milli keeps small evictions visible).
    OBS_COUNT("fusion.decayed_weight",
              static_cast<std::int64_t>(std::llround(evicted * 1000.0)));
  }
  ++tracks_added_;
}

void FusionAccumulator::add_tracks(const std::vector<GradeTrack>& tracks) {
  for (const auto& tr : tracks) add_track(tr);
}

void FusionAccumulator::add_tracks_parallel(
    const std::vector<GradeTrack>& tracks, runtime::ThreadPool& pool) {
  OBS_SPAN("fusion.add_tracks_parallel");
  // Fixed chunk size, NOT derived from the pool size: the partials and
  // their merge order are then identical for every thread count, so the
  // result is bit-reproducible across machines with different pools.
  constexpr std::size_t kChunk = 8;
  if (tracks.size() <= kChunk) {
    add_tracks(tracks);
    return;
  }
  const std::size_t n_chunks = (tracks.size() + kChunk - 1) / kChunk;
  std::vector<FusionAccumulator> partials(n_chunks,
                                          FusionAccumulator(grid_, cfg_));
  runtime::parallel_for(pool, n_chunks, [&](std::size_t c) {
    const std::size_t begin = c * kChunk;
    const std::size_t end = std::min(tracks.size(), begin + kChunk);
    for (std::size_t k = begin; k < end; ++k) partials[c].add_track(tracks[k]);
  });
  for (const auto& partial : partials) merge(partial);
}

namespace {

/// merge() precondition failure, naming the field that differs so a
/// failed merge points at its cause instead of an indistinguishable
/// "grid/config mismatch".
[[noreturn]] void merge_mismatch(const char* field, double mine,
                                 double theirs) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "FusionAccumulator::merge: %s mismatch (%.17g vs %.17g)",
                field, mine, theirs);
  throw std::invalid_argument(buf);
}

}  // namespace

void FusionAccumulator::merge(const FusionAccumulator& other) {
  if (grid_.step != other.grid_.step) {
    merge_mismatch("grid spacing (step)", grid_.step, other.grid_.step);
  }
  if (grid_.lo != other.grid_.lo) {
    merge_mismatch("grid origin (lo)", grid_.lo, other.grid_.lo);
  }
  if (grid_.hi != other.grid_.hi || grid_.n != other.grid_.n) {
    merge_mismatch("grid length (hi/n)",
                   grid_.n != other.grid_.n
                       ? static_cast<double>(grid_.n)
                       : grid_.hi,
                   grid_.n != other.grid_.n
                       ? static_cast<double>(other.grid_.n)
                       : other.grid_.hi);
  }
  if (cfg_.min_variance != other.cfg_.min_variance) {
    merge_mismatch("config min_variance", cfg_.min_variance,
                   other.cfg_.min_variance);
  }
  if (cfg_.distance_step_m != other.cfg_.distance_step_m) {
    merge_mismatch("config distance_step_m", cfg_.distance_step_m,
                   other.cfg_.distance_step_m);
  }
  if (cfg_.decay_tau_s != other.cfg_.decay_tau_s) {
    merge_mismatch("config decay_tau_s", cfg_.decay_tau_s,
                   other.cfg_.decay_tau_s);
  }
  if (!decay_enabled()) {
    for (std::size_t i = 0; i < grid_.n; ++i) {
      weight_sum_[i] += other.weight_sum_[i];
      grade_sum_[i] += other.grade_sum_[i];
      speed_sum_[i] += other.speed_sum_[i];
      t_sum_[i] += other.t_sum_[i];
      coverage_[i] += other.coverage_[i];
    }
  } else {
    // Align each cell's reference times before summing: the side with
    // the older ref is aged up to the newer one, so the merged cell is
    // decayed to max(ref_a, ref_b). A cell that only one side covers is
    // taken over as is (an empty cell's ref_t is meaningless).
    double evicted = 0.0;
    for (std::size_t i = 0; i < grid_.n; ++i) {
      if (other.coverage_[i] == 0) continue;
      if (coverage_[i] == 0) {
        weight_sum_[i] = other.weight_sum_[i];
        grade_sum_[i] = other.grade_sum_[i];
        speed_sum_[i] = other.speed_sum_[i];
        t_sum_[i] = other.t_sum_[i];
        decayed_count_[i] = other.decayed_count_[i];
        ref_t_[i] = other.ref_t_[i];
        coverage_[i] = other.coverage_[i];
        continue;
      }
      const double ref = std::max(ref_t_[i], other.ref_t_[i]);
      const double dm = std::exp(-(ref - ref_t_[i]) / cfg_.decay_tau_s);
      const double d_other = std::exp(-(ref - other.ref_t_[i]) / cfg_.decay_tau_s);
      evicted += weight_sum_[i] * (1.0 - dm) +
                 other.weight_sum_[i] * (1.0 - d_other);
      weight_sum_[i] = weight_sum_[i] * dm + other.weight_sum_[i] * d_other;
      grade_sum_[i] = grade_sum_[i] * dm + other.grade_sum_[i] * d_other;
      speed_sum_[i] = speed_sum_[i] * dm + other.speed_sum_[i] * d_other;
      t_sum_[i] = t_sum_[i] * dm + other.t_sum_[i] * d_other;
      decayed_count_[i] =
          decayed_count_[i] * dm + other.decayed_count_[i] * d_other;
      ref_t_[i] = ref;
      coverage_[i] += other.coverage_[i];
    }
    OBS_COUNT("fusion.decayed_weight",
              static_cast<std::int64_t>(std::llround(evicted * 1000.0)));
  }
  tracks_added_ += other.tracks_added_;
}

GradeTrack FusionAccumulator::snapshot() const {
  if (tracks_added_ == 0) {
    throw std::invalid_argument("FusionAccumulator::snapshot: no tracks");
  }
  const auto full = static_cast<std::uint32_t>(
      std::min<std::size_t>(tracks_added_,
                            std::numeric_limits<std::uint32_t>::max()));
  // Tracks cover contiguous cell intervals, so the all-covered region is
  // their (contiguous) intersection.
  std::size_t begin = 0;
  while (begin < grid_.n && coverage_[begin] != full) ++begin;
  std::size_t end = begin;
  while (end < grid_.n && coverage_[end] == full) ++end;
  if (begin == end) {
    throw std::invalid_argument(
        "FusionAccumulator::snapshot: tracks do not overlap on the grid");
  }

  GradeTrack fused = make_fused_shell(end - begin);
  const auto n_tracks = static_cast<double>(tracks_added_);
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t j = i - begin;
    fused.s[j] = grid_.at(i);
    fused.grade[j] = grade_sum_[i] / weight_sum_[i];
    fused.grade_var[j] = 1.0 / weight_sum_[i];
    fused.speed[j] = speed_sum_[i] / weight_sum_[i];
    // With decay on, t_sum_ is a decayed sum of timestamps, so the
    // matching divisor is the decayed contribution count, not tracks.
    fused.t[j] =
        t_sum_[i] / (decay_enabled() ? decayed_count_[i] : n_tracks);
  }
  fused.validate();
  return fused;
}

FusionAccumulator::CoverageSnapshot FusionAccumulator::snapshot_covered(
    std::uint32_t min_coverage) const {
  if (min_coverage == 0) {
    throw std::invalid_argument(
        "FusionAccumulator: min_coverage must be >= 1");
  }
  // Count first, so every array is sized exactly (no growth slack).
  std::size_t n_covered = 0;
  for (const std::uint32_t c : coverage_) {
    if (c >= min_coverage) ++n_covered;
  }
  CoverageSnapshot out;
  out.track = make_fused_shell(n_covered);
  out.cells.resize(n_covered);
  out.coverage.resize(n_covered);
  std::size_t j = 0;
  for (std::size_t i = 0; i < grid_.n; ++i) {
    if (coverage_[i] < min_coverage) continue;
    out.cells[j] = i;
    out.coverage[j] = coverage_[i];
    out.track.s[j] = grid_.at(i);
    out.track.grade[j] = grade_sum_[i] / weight_sum_[i];
    out.track.grade_var[j] = 1.0 / weight_sum_[i];
    out.track.speed[j] = speed_sum_[i] / weight_sum_[i];
    // Mean traversal time over the tracks that covered THIS cell. When
    // coverage_[i] == tracks_added_ this divides by the same double as
    // snapshot(), keeping the all-covered case bit-identical.
    out.track.t[j] = t_sum_[i] / (decay_enabled()
                                      ? decayed_count_[i]
                                      : static_cast<double>(coverage_[i]));
    ++j;
  }
  return out;
}

// ------------------------------------------------------ entry points ----

GradeTrack fuse_tracks_time(const std::vector<GradeTrack>& tracks,
                            std::size_t reference, const FusionConfig& cfg) {
  OBS_SPAN("fusion.time");
  if (tracks.empty()) {
    throw std::invalid_argument("fuse_tracks_time: no tracks");
  }
  if (reference >= tracks.size()) {
    throw std::invalid_argument("fuse_tracks_time: bad reference index");
  }
  for (const auto& tr : tracks) {
    if (tr.t.empty()) {
      throw std::invalid_argument("fuse_tracks_time: empty track");
    }
  }
  const GradeTrack& ref = tracks[reference];

  GradeTrack fused;
  fused.source = "fused";
  fused.t = ref.t;
  fused.s = ref.s;
  fused.speed = ref.speed;
  fused.grade.reserve(ref.size());
  fused.grade_var.reserve(ref.size());

  // Reference timestamps are non-decreasing, so each track gets one
  // monotone cursor instead of a binary search per (sample, track) pair.
  std::vector<math::InterpCursor> cursors(tracks.size());
  std::vector<double> thetas(tracks.size());
  std::vector<double> variances(tracks.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double ti = ref.t[i];
    for (std::size_t k = 0; k < tracks.size(); ++k) {
      const GradeTrack& tr = tracks[k];
      const math::InterpPos pos =
          cursors[k].advance({tr.t.data(), tr.t.size()}, ti);
      thetas[k] = lerp_at(pos, tr.grade);
      variances[k] = lerp_at(pos, tr.grade_var);
    }
    const auto [gbar, pbar] =
        convex_combine(thetas, variances, cfg.min_variance);
    fused.grade.push_back(gbar);
    fused.grade_var.push_back(pbar);
  }
  fused.validate();
  return fused;
}

GradeTrack fuse_tracks_distance(const std::vector<GradeTrack>& tracks,
                                const FusionConfig& cfg) {
  OBS_SPAN("fusion.distance");
  const FusionGrid grid = make_overlap_grid(tracks, cfg);
  GradeTrack fused = make_fused_shell(grid.n);
  fuse_distance_range(tracks, cfg, grid, 0, grid.n, fused);
  fused.validate();
  return fused;
}

GradeTrack fuse_tracks_distance_batch(const std::vector<GradeTrack>& tracks,
                                      const FusionConfig& cfg,
                                      runtime::ThreadPool& pool) {
  OBS_SPAN("fusion.distance_batch");
  const FusionGrid grid = make_overlap_grid(tracks, cfg);
  GradeTrack fused = make_fused_shell(grid.n);
  // Coarse contiguous chunks: each keeps its own per-track cursors, and
  // chunking overhead stays negligible relative to the interpolation work.
  const std::size_t grain =
      std::max<std::size_t>(64, grid.n / (8 * pool.size() + 1));
  const std::size_t n_chunks = (grid.n + grain - 1) / grain;
  runtime::parallel_for(pool, n_chunks, [&](std::size_t c) {
    const std::size_t begin = c * grain;
    const std::size_t end = std::min(grid.n, begin + grain);
    fuse_distance_range(tracks, cfg, grid, begin, end, fused);
  });
  fused.validate();
  return fused;
}

}  // namespace rge::core

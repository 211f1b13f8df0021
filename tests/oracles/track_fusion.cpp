#include "oracles/track_fusion.hpp"

#include <algorithm>
#include <stdexcept>

#include "math/interp.hpp"

namespace rge::oracles {

using core::FusionConfig;
using core::GradeTrack;

namespace {

double lerp_at(const math::InterpPos& p, const std::vector<double>& vals) {
  return vals[p.lo] * (1.0 - p.f) + vals[p.hi] * p.f;
}

/// One binary search per query (std::upper_bound), clamped at the ends.
math::InterpPos locate_ref(const std::vector<double>& keys, double q) {
  if (q <= keys.front()) return {0, 0, 0.0};
  if (q >= keys.back()) return {keys.size() - 1, keys.size() - 1, 0.0};
  const auto it = std::upper_bound(keys.begin(), keys.end(), q);
  const std::size_t hi = static_cast<std::size_t>(it - keys.begin());
  const std::size_t lo = hi - 1;
  const double denom = keys[hi] - keys[lo];
  return {lo, hi, denom > 0.0 ? (q - keys[lo]) / denom : 0.0};
}

}  // namespace

GradeTrack fuse_tracks_time_reference(const std::vector<GradeTrack>& tracks,
                                      std::size_t reference,
                                      const FusionConfig& cfg) {
  if (tracks.empty()) {
    throw std::invalid_argument("fuse_tracks_time: no tracks");
  }
  if (reference >= tracks.size()) {
    throw std::invalid_argument("fuse_tracks_time: bad reference index");
  }
  const GradeTrack& ref = tracks[reference];

  GradeTrack fused;
  fused.source = "fused";
  fused.t = ref.t;
  fused.s = ref.s;
  fused.speed = ref.speed;
  fused.grade.reserve(ref.size());
  fused.grade_var.reserve(ref.size());

  std::vector<double> thetas(tracks.size());
  std::vector<double> variances(tracks.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double ti = ref.t[i];
    for (std::size_t k = 0; k < tracks.size(); ++k) {
      const GradeTrack& tr = tracks[k];
      if (tr.t.empty()) {
        throw std::invalid_argument("fuse_tracks_time: empty track");
      }
      const math::InterpPos pos = locate_ref(tr.t, ti);
      thetas[k] = lerp_at(pos, tr.grade);
      variances[k] = lerp_at(pos, tr.grade_var);
    }
    const auto [gbar, pbar] =
        core::convex_combine(thetas, variances, cfg.min_variance);
    fused.grade.push_back(gbar);
    fused.grade_var.push_back(pbar);
  }
  fused.validate();
  return fused;
}

GradeTrack fuse_tracks_distance_reference(
    const std::vector<GradeTrack>& tracks, const FusionConfig& cfg) {
  const core::FusionGrid grid = core::make_overlap_grid(tracks, cfg);
  GradeTrack fused;
  fused.source = "fused-distance";
  fused.t.resize(grid.n);
  fused.grade.resize(grid.n);
  fused.grade_var.resize(grid.n);
  fused.speed.resize(grid.n);
  fused.s.resize(grid.n);
  for (std::size_t i = 0; i < grid.n; ++i) {
    const double s = grid.at(i);
    const std::size_t n_tracks = tracks.size();
    double weight_sum = 0.0;
    double grade_sum = 0.0;
    double speed_sum = 0.0;
    double t_sum = 0.0;
    for (std::size_t k = 0; k < n_tracks; ++k) {
      const GradeTrack& tr = tracks[k];
      const math::InterpPos pos = locate_ref(tr.s, s);
      const double p = std::max(cfg.min_variance, lerp_at(pos, tr.grade_var));
      const double w = 1.0 / p;
      weight_sum += w;
      grade_sum += lerp_at(pos, tr.grade) * w;
      speed_sum += lerp_at(pos, tr.speed) * w;
      t_sum += lerp_at(pos, tr.t);
    }
    fused.s[i] = s;
    fused.grade[i] = grade_sum / weight_sum;
    fused.grade_var[i] = 1.0 / weight_sum;
    fused.speed[i] = speed_sum / weight_sum;
    fused.t[i] = t_sum / static_cast<double>(n_tracks);
  }
  fused.validate();
  return fused;
}

}  // namespace rge::oracles

#include "core/map_matching.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/road_matcher.hpp"
#include "math/interp.hpp"

namespace rge::core {

MatchedFix match_point(const road::Road& road, const math::GeoPoint& point,
                       const MapMatchConfig& cfg) {
  return shared_matcher(road, cfg)->match_point(point);
}

std::vector<MatchedFix> match_track(const road::Road& road,
                                    const std::vector<sensors::GpsFix>& fixes,
                                    const MapMatchConfig& cfg) {
  return shared_matcher(road, cfg)->match_track(fixes);
}

GradeTrack rekey_track_by_road(const GradeTrack& track,
                               const road::Road& road,
                               const std::vector<sensors::GpsFix>& fixes,
                               const MapMatchConfig& cfg) {
  const auto matched = match_track(road, fixes, cfg);
  std::vector<double> mt;
  std::vector<double> ms;
  for (const auto& m : matched) {
    if (!m.valid) continue;
    // Keep the key monotone even under GPS noise.
    if (!ms.empty() && m.s_m <= ms.back()) continue;
    if (!mt.empty() && m.t <= mt.back()) continue;
    mt.push_back(m.t);
    ms.push_back(m.s_m);
  }
  if (mt.size() < 2) {
    throw std::invalid_argument(
        "rekey_track_by_road: fewer than 2 usable matched fixes");
  }

  // Odometry value at the edges of the matched window, for anchored
  // extrapolation beyond it.
  const double odo_front = math::sample_linear(track.t, track.s, mt.front());
  const double odo_back = math::sample_linear(track.t, track.s, mt.back());

  GradeTrack out = track;
  // Track timestamps are non-decreasing, so one monotone cursor replaces
  // a binary search per sample.
  math::InterpCursor cursor;
  for (std::size_t i = 0; i < out.t.size(); ++i) {
    const double t = out.t[i];
    if (t <= mt.front()) {
      // Anchor at the first match, offset by odometry.
      out.s[i] = ms.front() + (track.s[i] - odo_front);
    } else if (t >= mt.back()) {
      out.s[i] = ms.back() + (track.s[i] - odo_back);
    } else {
      const math::InterpPos pos = cursor.advance({mt.data(), mt.size()}, t);
      out.s[i] = ms[pos.lo] * (1.0 - pos.f) + ms[pos.hi] * pos.f;
    }
  }
  return out;
}

}  // namespace rge::core

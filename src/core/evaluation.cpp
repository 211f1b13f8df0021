#include "core/evaluation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/angles.hpp"
#include "math/interp.hpp"
#include "math/stats.hpp"

namespace rge::core {

namespace {

/// Generic interpolation over trip states by a key extractor.
template <typename KeyFn, typename ValFn>
std::vector<double> interp_states(const vehicle::Trip& trip,
                                  std::span<const double> queries, KeyFn key,
                                  ValFn val) {
  if (trip.states.empty()) {
    throw std::invalid_argument("evaluation: empty trip");
  }
  std::vector<double> out;
  out.reserve(queries.size());
  const auto& st = trip.states;
  for (double q : queries) {
    out.push_back(math::sample_linear(st, key, val, q));
  }
  return out;
}

}  // namespace

std::vector<double> elevation_from_track(const GradeTrack& track) {
  std::vector<double> z(track.size(), 0.0);
  for (std::size_t i = 1; i < track.size(); ++i) {
    const double ds = track.s[i] - track.s[i - 1];
    const double theta = 0.5 * (track.grade[i] + track.grade[i - 1]);
    z[i] = z[i - 1] + std::sin(theta) * ds;
  }
  return z;
}

std::vector<double> truth_grade_at_times(const vehicle::Trip& trip,
                                         std::span<const double> t) {
  return interp_states(
      trip, t, [](const vehicle::VehicleState& s) { return s.t; },
      [](const vehicle::VehicleState& s) { return s.grade; });
}

std::vector<double> truth_grade_at_distances(const vehicle::Trip& trip,
                                             std::span<const double> s) {
  return interp_states(
      trip, s, [](const vehicle::VehicleState& st) { return st.s; },
      [](const vehicle::VehicleState& st) { return st.grade; });
}

TrackErrorStats evaluate_track(const GradeTrack& track,
                               const vehicle::Trip& trip,
                               double skip_initial_s) {
  if (track.t.empty()) {
    throw std::invalid_argument("evaluate_track: empty track");
  }
  const double t_min = track.t.front() + skip_initial_s;

  std::vector<double> ts;
  std::vector<double> est;
  for (std::size_t i = 0; i < track.t.size(); ++i) {
    if (track.t[i] < t_min) continue;
    ts.push_back(track.t[i]);
    est.push_back(track.grade[i]);
  }
  if (ts.empty()) {
    throw std::invalid_argument(
        "evaluate_track: nothing left after skip_initial_s");
  }
  const std::vector<double> truth = truth_grade_at_times(trip, ts);
  const std::vector<double> pos = interp_states(
      trip, std::span<const double>(ts),
      [](const vehicle::VehicleState& s) { return s.t; },
      [](const vehicle::VehicleState& s) { return s.s; });

  TrackErrorStats stats;
  stats.mae_rad = math::mae(est, truth);
  stats.rmse_rad = math::rmse(est, truth);
  stats.mre = math::mre(est, truth);
  stats.abs_errors_deg.reserve(est.size());
  for (std::size_t i = 0; i < est.size(); ++i) {
    stats.abs_errors_deg.push_back(
        std::abs(math::rad2deg(est[i] - truth[i])));
  }
  stats.median_abs_deg = math::median(stats.abs_errors_deg);
  stats.positions_m = pos;
  return stats;
}

}  // namespace rge::core

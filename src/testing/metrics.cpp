#include "testing/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "emissions/vsp.hpp"
#include "math/angles.hpp"
#include "math/interp.hpp"
#include "math/stats.hpp"

namespace rge::testing {

namespace {

/// Clamped linear sample of (xs, ys) at q; xs sorted non-decreasing.
/// Trip ground-truth arc length at time t (piecewise linear over states).
double truth_s_at_time(const vehicle::Trip& trip, double t) {
  return math::sample_linear(trip.states, &vehicle::VehicleState::t,
                             &vehicle::VehicleState::s, t);
}

}  // namespace

bool ScenarioMetrics::bit_identical(const ScenarioMetrics& other) const {
  return grade_rmse_deg == other.grade_rmse_deg &&
         grade_mae_deg == other.grade_mae_deg &&
         grade_median_abs_deg == other.grade_median_abs_deg &&
         grade_mre == other.grade_mre &&
         coverage_frac == other.coverage_frac &&
         fuel_error_rel == other.fuel_error_rel &&
         n_samples == other.n_samples;
}

Json ScenarioMetrics::to_json() const {
  Json::Object obj;
  obj["grade_rmse_deg"] = Json(grade_rmse_deg);
  obj["grade_mae_deg"] = Json(grade_mae_deg);
  obj["grade_median_abs_deg"] = Json(grade_median_abs_deg);
  obj["grade_mre"] = Json(grade_mre);
  obj["coverage_frac"] = Json(coverage_frac);
  obj["fuel_error_rel"] = Json(fuel_error_rel);
  obj["n_samples"] = Json(n_samples);
  return Json(std::move(obj));
}

ScenarioMetrics ScenarioMetrics::from_json(const Json& j) {
  ScenarioMetrics m;
  m.grade_rmse_deg = j.at("grade_rmse_deg").as_number();
  m.grade_mae_deg = j.at("grade_mae_deg").as_number();
  m.grade_median_abs_deg = j.at("grade_median_abs_deg").as_number();
  m.grade_mre = j.at("grade_mre").as_number();
  m.coverage_frac = j.at("coverage_frac").as_number();
  m.fuel_error_rel = j.at("fuel_error_rel").as_number();
  m.n_samples = j.at("n_samples").as_number();
  return m;
}

ScenarioMetrics compute_scenario_metrics(const core::GradeTrack& fused,
                                         const road::ReferenceProfile& ref,
                                         const vehicle::Trip& trip,
                                         double route_length_m,
                                         bool time_domain,
                                         double skip_initial_s) {
  ScenarioMetrics m;
  std::vector<double> errs_rad;
  std::vector<double> abs_refs;
  errs_rad.reserve(fused.size());
  abs_refs.reserve(fused.size());
  for (std::size_t i = 0; i < fused.size(); ++i) {
    if (fused.t[i] < skip_initial_s) continue;
    const double s_road =
        time_domain ? truth_s_at_time(trip, fused.t[i]) : fused.s[i];
    const double ref_grade = ref.grade_at(s_road);
    errs_rad.push_back(fused.grade[i] - ref_grade);
    abs_refs.push_back(std::abs(ref_grade));
  }
  if (!errs_rad.empty()) {
    std::vector<double> abs_deg;
    abs_deg.reserve(errs_rad.size());
    double sq = 0.0;
    double abs_sum = 0.0;
    for (const double e : errs_rad) {
      sq += e * e;
      abs_sum += std::abs(e);
      abs_deg.push_back(math::rad2deg(std::abs(e)));
    }
    const auto n = static_cast<double>(errs_rad.size());
    m.grade_rmse_deg = math::rad2deg(std::sqrt(sq / n));
    m.grade_mae_deg = math::rad2deg(abs_sum / n);
    m.grade_median_abs_deg = math::median(abs_deg);
    const double ref_mean = math::mean(abs_refs);
    m.grade_mre = ref_mean > 0.0 ? (abs_sum / n) / ref_mean : 0.0;
  }
  m.n_samples = static_cast<double>(errs_rad.size());
  const double span = fused.s.empty() ? 0.0 : fused.s.back() - fused.s.front();
  m.coverage_frac = route_length_m > 0.0 ? span / route_length_m : 0.0;
  m.fuel_error_rel =
      vsp_fuel_error_rel(fused, trip, time_domain, skip_initial_s);
  return m;
}

double vsp_fuel_error_rel(const core::GradeTrack& fused,
                          const vehicle::Trip& trip, bool time_domain,
                          double skip_initial_s) {
  if (fused.size() < 2 || trip.states.empty()) return 0.0;
  const emissions::VspParams vsp;
  double fuel_truth = 0.0;
  double fuel_est = 0.0;
  // Walk the ground-truth kinematics; only the grade differs between the
  // two integrals, so the result isolates the gradient term of Eq. 7 —
  // exactly the paper's "how much does grade error distort fuel" question.
  for (const auto& st : trip.states) {
    if (st.t < skip_initial_s) continue;
    // Evaluate only where the estimate actually covers the drive, so a
    // short track is not silently extrapolated flat.
    if (time_domain) {
      if (st.t < fused.t.front() || st.t > fused.t.back()) continue;
    } else {
      if (st.s < fused.s.front() || st.s > fused.s.back()) continue;
    }
    const double est_grade =
        time_domain ? math::sample_linear(fused.t, fused.grade, st.t)
                    : math::sample_linear(fused.s, fused.grade, st.s);
    fuel_truth += emissions::fuel_used_gal(st.speed, st.accel, st.grade,
                                           trip.dt, vsp);
    fuel_est += emissions::fuel_used_gal(st.speed, st.accel, est_grade,
                                         trip.dt, vsp);
  }
  if (fuel_truth <= 0.0) return 0.0;
  return (fuel_est - fuel_truth) / fuel_truth;
}

ToleranceBands default_tolerances(const ScenarioMetrics& golden) {
  // Floor + 25% relative margin: wide enough that harmless numeric drift
  // (e.g. a refactored but equivalent smoother) passes, tight enough that
  // a genuine accuracy regression — the kind that moved Fig. 8's medians —
  // trips the gate.
  ToleranceBands tol;
  tol.grade_rmse_deg = std::max(0.06, 0.25 * golden.grade_rmse_deg);
  tol.grade_mae_deg = std::max(0.05, 0.25 * golden.grade_mae_deg);
  tol.grade_median_abs_deg =
      std::max(0.05, 0.25 * golden.grade_median_abs_deg);
  tol.grade_mre = std::max(0.08, 0.25 * golden.grade_mre);
  tol.coverage_frac = 0.02;
  tol.fuel_error_rel = std::max(0.02, 0.5 * std::abs(golden.fuel_error_rel));
  tol.n_samples = std::max(8.0, 0.02 * golden.n_samples);
  return tol;
}

Json golden_to_json(const std::string& scenario_name,
                    const ScenarioMetrics& metrics,
                    const ToleranceBands& tol) {
  Json::Object tols;
  tols["grade_rmse_deg"] = Json(tol.grade_rmse_deg);
  tols["grade_mae_deg"] = Json(tol.grade_mae_deg);
  tols["grade_median_abs_deg"] = Json(tol.grade_median_abs_deg);
  tols["grade_mre"] = Json(tol.grade_mre);
  tols["coverage_frac"] = Json(tol.coverage_frac);
  tols["fuel_error_rel"] = Json(tol.fuel_error_rel);
  tols["n_samples"] = Json(tol.n_samples);

  Json::Object doc;
  doc["scenario"] = Json(scenario_name);
  doc["metrics"] = metrics.to_json();
  doc["tolerances"] = Json(std::move(tols));
  return Json(std::move(doc));
}

GoldenComparison compare_to_golden(const ScenarioMetrics& measured,
                                   const Json& golden_doc) {
  GoldenComparison cmp;
  const ScenarioMetrics golden =
      ScenarioMetrics::from_json(golden_doc.at("metrics"));
  const Json& tol = golden_doc.at("tolerances");

  const auto check = [&](const char* name, double got, double want) {
    const double band = tol.get_number(name, 0.0);
    if (std::abs(got - want) <= band) return;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: %.6g vs golden %.6g (tol %.3g)",
                  name, got, want, band);
    cmp.ok = false;
    cmp.failures.emplace_back(buf);
  };
  check("grade_rmse_deg", measured.grade_rmse_deg, golden.grade_rmse_deg);
  check("grade_mae_deg", measured.grade_mae_deg, golden.grade_mae_deg);
  check("grade_median_abs_deg", measured.grade_median_abs_deg,
        golden.grade_median_abs_deg);
  check("grade_mre", measured.grade_mre, golden.grade_mre);
  check("coverage_frac", measured.coverage_frac, golden.coverage_frac);
  check("fuel_error_rel", measured.fuel_error_rel, golden.fuel_error_rel);
  check("n_samples", measured.n_samples, golden.n_samples);
  return cmp;
}

}  // namespace rge::testing

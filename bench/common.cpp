#include "common.hpp"

#include <cstdio>

#include "baselines/ekf_altitude.hpp"
#include "math/stats.hpp"
#include "obs/obs.hpp"

namespace rge::bench {

Drive simulate_drive(road::Road road, const DriveOptions& opts) {
  Drive d{std::move(road), {}, {}};
  vehicle::TripConfig tc;
  tc.seed = opts.trip_seed;
  tc.lane_changes_per_km = opts.lane_changes_per_km;
  tc.cruise_speed_mps = opts.cruise_speed_mps;
  tc.stops_per_km = opts.stops_per_km;
  d.trip = vehicle::simulate_trip(d.road, tc);
  sensors::SmartphoneConfig pc;
  pc.seed = opts.phone_seed;
  pc.random_outage_count = opts.random_gps_outages;
  d.trace = sensors::simulate_sensors(d.trip, d.road.anchor(),
                                      default_vehicle(), pc);
  return d;
}

vehicle::VehicleParams default_vehicle() { return vehicle::VehicleParams{}; }

baselines::AnnGradeEstimator train_ann_on(const road::Road& road,
                                          std::uint64_t seed) {
  DriveOptions opts;
  opts.trip_seed = seed;
  opts.phone_seed = seed + 1;
  const Drive d = simulate_drive(road, opts);
  std::vector<double> ts;
  std::vector<double> gs;
  ts.reserve(d.trip.states.size());
  gs.reserve(d.trip.states.size());
  for (const auto& st : d.trip.states) {
    ts.push_back(st.t);
    gs.push_back(st.grade);
  }
  // Sample rate chosen so the paper's 4,320-sample budget covers the drive.
  const double rate =
      4320.0 / std::max(1.0, d.trip.duration_s());
  auto samples = baselines::make_training_samples(d.trace, ts, gs, rate);
  baselines::AnnGradeEstimator ann;
  ann.train(samples);
  return ann;
}

std::vector<MethodResult> compare_methods(
    const Drive& drive, baselines::AnnGradeEstimator& trained_ann,
    const core::PipelineConfig& ops_cfg) {
  const auto ops = core::estimate_gradient(drive.trace, default_vehicle(),
                                           ops_cfg);
  return compare_methods(drive, trained_ann, ops);
}

std::vector<MethodResult> compare_methods(
    const Drive& drive, baselines::AnnGradeEstimator& trained_ann,
    const core::PipelineResult& precomputed_ops) {
  std::vector<MethodResult> out;
  const auto vehicle = default_vehicle();

  out.push_back(
      {"OPS", core::evaluate_track(precomputed_ops.fused, drive.trip)});

  const auto ekf = baselines::run_altitude_ekf(drive.trace, vehicle);
  out.push_back({"EKF", core::evaluate_track(ekf, drive.trip)});

  const auto ann_track = trained_ann.run(drive.trace);
  out.push_back({"ANN", core::evaluate_track(ann_track, drive.trip)});
  return out;
}

void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n======================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("======================================================\n");
}

std::string stage_summary() {
  const auto totals = obs::span_totals();
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? obs::SpanTotal{} : it->second;
  };
  const auto ms = [&](std::initializer_list<const char*> names) {
    std::int64_t ns = 0;
    for (const char* name : names) ns += total(name).total_ns;
    return static_cast<double>(ns) * 1e-6;
  };
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "trips=%lld | align %.1f ms | detect %.1f ms | ekf %.1f ms | "
                "fuse %.1f ms",
                static_cast<long long>(total("pipeline.trip").count),
                ms({"pipeline.align"}), ms({"pipeline.detect"}),
                ms({"pipeline.ekf"}),
                ms({"pipeline.fuse", "fusion.distance_batch"}));
  std::string out = buf;
  for (const auto& [label, name] :
       {std::pair{"match", "match.track"},
        std::pair{"accumulate", "fusion.add_tracks_parallel"}}) {
    if (total(name).count == 0) continue;
    std::snprintf(buf, sizeof(buf), " | %s %.1f ms", label, ms({name}));
    out += buf;
  }
  return out;
}

void print_cdf(const std::string& label, const std::vector<double>& samples,
               double max_err_deg, std::size_t points) {
  const math::EmpiricalCdf cdf(samples);
  std::printf("%-28s", label.c_str());
  for (std::size_t i = 0; i < points; ++i) {
    const double x = max_err_deg * static_cast<double>(i) /
                     static_cast<double>(points - 1);
    std::printf(" %5.2f", cdf.prob_below(x));
  }
  std::printf("   median=%.3f deg\n", median_of(samples));
}

double median_of(const std::vector<double>& xs) {
  return math::median(xs);
}

}  // namespace rge::bench

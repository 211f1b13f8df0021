// Fig. 9(a) reproduction: road-gradient estimation over the large-scale
// city network (164.8 km, Fig. 7(a)), with lane changes and GPS outages.
// Paper reference: MRE 12.4%, close to the small-scale result — the system
// is robust across road conditions.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "math/angles.hpp"
#include "math/stats.hpp"
#include "road/network.hpp"
#include "obs/obs.hpp"

int main() {
  using namespace rge;
  bench::print_header(
      "Fig. 9(a): gradient estimation over the city network",
      "paper Fig. 9(a); MRE 12.4% on 164.8 km with outages/lane changes");

  const road::RoadNetwork net = road::make_city_network(2019);
  std::printf("\nnetwork: %zu roads, %.1f km total\n", net.size(),
              net.total_length_m() / 1000.0);

  double err_sum_rad = 0.0;     // sum |estimate - truth|
  double truth_sum_rad = 0.0;   // sum |truth| over the same samples
  std::vector<double> abs_errors_deg;
  std::vector<double> grade_histogram_deg;
  double worst_road_mre = 0.0;
  std::string worst_road;

  // ---- Phase 1: simulate every drive (seeded, deterministic). ---------
  std::vector<bench::Drive> drives;
  std::vector<sensors::SensorTrace> traces;
  std::size_t sim_idx = 0;
  for (const auto& nr : net.roads()) {
    bench::DriveOptions opts;
    opts.trip_seed = 1000 + sim_idx;
    opts.phone_seed = 2000 + sim_idx;
    opts.lane_changes_per_km = 1.2;
    opts.random_gps_outages = sim_idx % 5 == 0 ? 1 : 0;  // occasional outages
    drives.push_back(bench::simulate_drive(nr.road, opts));
    traces.push_back(drives.back().trace);
    ++sim_idx;
  }

  // ---- Phase 2: estimate all trips on the parallel batch runtime. -----
  obs::set_tracing(true);  // per-stage times come from the obs spans
  const auto results = core::run_pipeline_batch(
      traces, bench::default_vehicle(), {}, /*n_threads=*/0);
  obs::set_tracing(false);
  std::printf("batch runtime over %zu trips: %s\n", results.size(),
              bench::stage_summary().c_str());

  // ---- Phase 3: evaluate against ground truth. ------------------------
  std::size_t idx = 0;
  for (const auto& nr : net.roads()) {
    const bench::Drive& d = drives[idx];
    const auto& res = results[idx];
    const auto st = core::evaluate_track(res.fused, d.trip);

    // Matched truth series for the evaluated samples: reconstruct from the
    // per-sample errors and positions.
    const auto truth =
        core::truth_grade_at_distances(d.trip, st.positions_m);
    for (std::size_t i = 0; i < st.abs_errors_deg.size(); ++i) {
      err_sum_rad += math::deg2rad(st.abs_errors_deg[i]);
      truth_sum_rad += std::abs(truth[i]);
      abs_errors_deg.push_back(st.abs_errors_deg[i]);
    }
    if (st.mre > worst_road_mre) {
      worst_road_mre = st.mre;
      worst_road = nr.road.name();
    }
    for (double s = 0.0; s < nr.road.length_m(); s += 50.0) {
      grade_histogram_deg.push_back(math::rad2deg(nr.road.grade_at(s)));
    }
    ++idx;
  }

  // Gradient map summary (the Fig. 9(a) color map, as a histogram).
  std::printf("\ntrue network gradient distribution (the color map):\n");
  const auto hist = math::make_histogram(grade_histogram_deg, 13);
  for (std::size_t b = 0; b < hist.counts.size(); ++b) {
    const double lo = hist.lo + hist.bin_width() * b;
    std::printf("  [%+5.1f, %+5.1f) deg: %5.1f%%\n", lo,
                lo + hist.bin_width(),
                100.0 * hist.counts[b] / static_cast<double>(hist.total));
  }

  std::printf("\nnetwork-level results over %zu samples:\n",
              abs_errors_deg.size());
  std::printf("  mean abs error: %.3f deg   median: %.3f deg\n",
              math::mean(abs_errors_deg), math::median(abs_errors_deg));
  std::printf("  network MRE: %.1f%%   (paper: 12.4%%)\n",
              100.0 * err_sum_rad / truth_sum_rad);
  std::printf("  worst-road MRE: %.1f%% (%s)\n", 100.0 * worst_road_mre,
              worst_road.c_str());
  std::printf(
      "\n(the paper's takeaway: the network MRE stays close to the "
      "small-scale result -> robust to lane changes and GPS loss)\n");
  return 0;
}

// Fig. 9(b) reproduction: error CDFs of OPS vs the altitude-EKF and ANN
// baselines over the large-scale network. Paper reference medians at
// CDF=0.5: OPS 0.09 deg, EKF 0.13 deg, ANN 0.36 deg; OPS dominates at
// every quantile. Also computes the headline "error reduced by 22%".
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "math/angles.hpp"
#include "road/network.hpp"
#include "obs/obs.hpp"

int main() {
  using namespace rge;
  bench::print_header(
      "Fig. 9(b): method error CDFs on the city network",
      "paper Fig. 9(b); medians OPS 0.09, EKF 0.13, ANN 0.36 deg");

  // A representative slice of the network keeps the three-method sweep
  // fast while covering tens of km.
  const road::RoadNetwork net = road::make_city_network(2019, 40.0);
  std::printf("\nevaluating on %zu roads, %.1f km\n", net.size(),
              net.total_length_m() / 1000.0);

  // Train the ANN in-domain: labelled drives over a few network roads
  // (different trip/phone seeds than the evaluation drives), capped at the
  // paper's 4,320 samples by the estimator.
  baselines::AnnGradeEstimator ann = [] {
    std::vector<baselines::AnnSample> samples;
    const road::RoadNetwork train_net = road::make_city_network(2019, 40.0);
    std::size_t i = 0;
    for (const auto& nr : train_net.roads()) {
      if (i++ % 4 != 0) continue;  // a subset of roads is enough
      bench::DriveOptions opts;
      opts.trip_seed = 7000 + i;
      opts.phone_seed = 8000 + i;
      const bench::Drive d = bench::simulate_drive(nr.road, opts);
      std::vector<double> ts;
      std::vector<double> gs;
      for (const auto& st : d.trip.states) {
        ts.push_back(st.t);
        gs.push_back(st.grade);
      }
      const auto s = baselines::make_training_samples(d.trace, ts, gs, 2.0);
      samples.insert(samples.end(), s.begin(), s.end());
    }
    baselines::AnnGradeEstimator est;
    est.train(samples);
    return est;
  }();

  std::vector<double> errs_ops;
  std::vector<double> errs_ekf;
  std::vector<double> errs_ann;
  double mre_num[3] = {0, 0, 0};
  double mre_den[3] = {0, 0, 0};

  // Simulate all evaluation drives, then run the OPS estimations through
  // the parallel batch runtime; the two baselines run per drive below.
  std::vector<bench::Drive> drives;
  std::vector<rge::sensors::SensorTrace> traces;
  std::size_t sim_idx = 0;
  for (const auto& nr : net.roads()) {
    bench::DriveOptions opts;
    opts.trip_seed = 3000 + sim_idx;
    opts.phone_seed = 4000 + sim_idx;
    opts.lane_changes_per_km = 1.2;
    drives.push_back(bench::simulate_drive(nr.road, opts));
    traces.push_back(drives.back().trace);
    ++sim_idx;
  }
  obs::set_tracing(true);  // per-stage times come from the obs spans
  const auto ops_results = core::run_pipeline_batch(
      traces, bench::default_vehicle(), {}, /*n_threads=*/0);
  obs::set_tracing(false);
  std::printf("OPS batch runtime: %s\n", bench::stage_summary().c_str());

  for (std::size_t idx = 0; idx < drives.size(); ++idx) {
    const bench::Drive& d = drives[idx];
    const auto results = bench::compare_methods(d, ann, ops_results[idx]);
    for (std::size_t m = 0; m < results.size(); ++m) {
      const auto& st = results[m].stats;
      auto& sink = m == 0 ? errs_ops : (m == 1 ? errs_ekf : errs_ann);
      sink.insert(sink.end(), st.abs_errors_deg.begin(),
                  st.abs_errors_deg.end());
      for (double e : st.abs_errors_deg) mre_num[m] += math::deg2rad(e);
      const auto truth =
          rge::core::truth_grade_at_distances(d.trip, st.positions_m);
      for (double g : truth) mre_den[m] += std::abs(g);
    }
  }

  std::printf("\nCDF rows: P(|error| <= x) at x = 0.0 .. 1.0 deg\n");
  std::printf("%-28s", "");
  for (int i = 0; i <= 10; ++i) std::printf(" %5.1f", 0.1 * i);
  std::printf("\n");
  bench::print_cdf("OPS (proposed system)", errs_ops);
  bench::print_cdf("EKF (altitude baseline)", errs_ekf);
  bench::print_cdf("ANN (baseline)", errs_ann);

  const double mre_ops = mre_num[0] / mre_den[0];
  const double mre_ekf = mre_num[1] / mre_den[1];
  const double mre_ann = mre_num[2] / mre_den[2];
  std::printf("\nMREs: OPS %.1f%%, EKF %.1f%%, ANN %.1f%%\n",
              100.0 * mre_ops, 100.0 * mre_ekf, 100.0 * mre_ann);
  std::printf(
      "OPS error reduction vs best existing (EKF): %.0f%%   "
      "(paper headline: 22%%)\n",
      100.0 * (1.0 - mre_ops / mre_ekf));
  std::printf(
      "ordering check: OPS < EKF < ANN at the median: %s\n",
      bench::median_of(errs_ops) < bench::median_of(errs_ekf) &&
              bench::median_of(errs_ekf) < bench::median_of(errs_ann)
          ? "yes"
          : "NO");
  return 0;
}

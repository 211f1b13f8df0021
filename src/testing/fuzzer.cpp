#include "testing/fuzzer.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/map_matching.hpp"
#include "core/online_estimator.hpp"
#include "core/pipeline.hpp"
#include "core/road_matcher.hpp"
#include "math/rng.hpp"
#include "road/network.hpp"
#include "runtime/thread_pool.hpp"
#include "service/map_service.hpp"
#include "vehicle/params.hpp"

namespace rge::testing {

namespace {

using math::Rng;

/// Same per-trip seed stride the scenario harness uses.
constexpr std::uint64_t kTripSeedStride = 7919;
/// A fused batch/published grade beyond this (rad) is a broken estimator,
/// not a steep road: the composed terrain never exceeds ~14 % (~0.14 rad)
/// and the steepest public roads sit near 0.35 rad.
constexpr double kBatchGradeBound = 0.6;
/// The causal estimator rides through fault transients uncorrected, so it
/// gets a looser (but still clearly-unphysical) bound.
constexpr double kOnlineGradeBound = 1.5;
/// Violations recorded per case before the rest are suppressed.
constexpr std::size_t kMaxViolations = 16;

void add_violation(FuzzReport& report, std::string message) {
  if (report.violations.size() < kMaxViolations) {
    report.violations.push_back(std::move(message));
  } else if (report.violations.size() == kMaxViolations) {
    report.violations.push_back("... further violations suppressed");
  }
}

/// One invariant evaluation: counts it, records on failure.
void check(FuzzReport& report, bool ok, const std::string& message) {
  ++report.invariants_checked;
  if (!ok) add_violation(report, message);
}

std::size_t total_samples(const sensors::SensorTrace& trace) {
  return trace.imu.size() + trace.gps.size() + trace.speedometer.size() +
         trace.canbus_speed.size() + trace.barometer_alt.size() +
         trace.engine_torque.size() + trace.active_gear.size();
}

bool finite_bounded(const std::vector<double>& xs, double bound) {
  for (double x : xs) {
    if (!std::isfinite(x) || std::abs(x) > bound) return false;
  }
  return true;
}

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a == b;  // exact; validated tracks contain no NaN
}

bool tracks_bit_identical(const core::GradeTrack& a,
                          const core::GradeTrack& b) {
  return same_doubles(a.t, b.t) && same_doubles(a.s, b.s) &&
         same_doubles(a.grade, b.grade) &&
         same_doubles(a.grade_var, b.grade_var) &&
         same_doubles(a.speed, b.speed);
}

// ---- content checksums (immutability witnesses) -------------------------

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv_doubles(std::uint64_t h, const std::vector<double>& xs) {
  for (double x : xs) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    h = fnv_bytes(h, &bits, sizeof(bits));
  }
  return h;
}

std::uint64_t snapshot_checksum(const service::ServiceSnapshot& snap) {
  std::uint64_t h = 14695981039346656037ULL;
  h = fnv_bytes(h, &snap.epoch, sizeof(snap.epoch));
  for (const auto& view : snap.roads) {
    h = fnv_doubles(h, view.track.t);
    h = fnv_doubles(h, view.track.s);
    h = fnv_doubles(h, view.track.grade);
    h = fnv_doubles(h, view.track.grade_var);
    h = fnv_doubles(h, view.track.speed);
    for (std::size_t c : view.cells) h = fnv_bytes(h, &c, sizeof(c));
    for (std::uint32_t c : view.coverage) h = fnv_bytes(h, &c, sizeof(c));
  }
  return h;
}

bool views_bit_identical(const service::RoadView& a,
                         const service::RoadView& b) {
  return a.road == b.road && a.cells == b.cells && a.coverage == b.coverage &&
         tracks_bit_identical(a.track, b.track);
}

bool snapshots_bit_identical(const service::ServiceSnapshot& a,
                             const service::ServiceSnapshot& b) {
  if (a.roads.size() != b.roads.size()) return false;
  for (std::size_t r = 0; r < a.roads.size(); ++r) {
    if (!views_bit_identical(a.roads[r], b.roads[r])) return false;
  }
  return true;
}

/// Every road of the service's current snapshot equals its audit-path
/// view (merged_accumulator finalized) bit for bit: a publish that reused
/// a stale view for a road ingested into since would break this.
bool views_match_merged(const service::MapService& svc) {
  const auto snap = svc.snapshot();
  if (snap->roads.size() != svc.n_roads()) return false;
  for (service::RoadId r = 0; r < svc.n_roads(); ++r) {
    if (!views_bit_identical(snap->roads[r], svc.merged_road_view(r))) {
      return false;
    }
  }
  return true;
}

// ---- simulation ---------------------------------------------------------

/// Simulate device i's trip and trace, fold the terrain's GPS environment
/// into the phone config (tunnels deny, canyons burst), apply its fault
/// stack.
sensors::SensorTrace simulate_device(const FuzzScenario& scenario, int i,
                                     const vehicle::VehicleParams& params,
                                     vehicle::Trip* trip_out) {
  const auto idx = static_cast<std::size_t>(i);
  const vehicle::Trip trip =
      vehicle::simulate_trip(scenario.world.road, scenario.trips[idx]);
  sensors::SmartphoneConfig phone = scenario.devices[idx].config;
  for (const auto& [s0, s1] : scenario.world.gps_denied_s) {
    for (const auto& window : arc_interval_to_time_windows(trip, s0, s1)) {
      phone.gps_outages.push_back(window);
    }
  }
  for (const auto& [s0, s1] : scenario.world.gps_degraded_s) {
    for (const auto& [t0, t1] : arc_interval_to_time_windows(trip, s0, s1)) {
      // Multipath modelled as periodic dropout bursts, not a hard denial.
      for (double t = t0; t < t1; t += 12.0) {
        phone.gps_outages.emplace_back(t, std::min(t1, t + 4.0));
      }
    }
  }
  sensors::SensorTrace trace = sensors::simulate_sensors(
      trip, scenario.world.road.anchor(), params, phone);
  for (const auto& fault : scenario.fault_stacks[idx]) {
    apply_fault(trace, fault);
  }
  if (trip_out != nullptr) *trip_out = trip;
  return trace;
}

// ---- stage: batch pipeline ---------------------------------------------

struct PipelineStage {
  std::vector<std::size_t> accepted;  ///< indices into the trace list
  std::vector<sensors::SensorTrace> accepted_traces;
  std::vector<core::PipelineResult> results;  ///< parallel to accepted
};

void check_sanitizer_conservation(FuzzReport& report,
                                  const sensors::SensorTrace& raw,
                                  const sensors::SanitizeReport& from_pipeline,
                                  const std::string& tag) {
  sensors::SensorTrace copy = raw;
  const sensors::SanitizeReport ref = sensors::sanitize_trace(copy);
  check(report,
        ref.dropped_imu == from_pipeline.dropped_imu &&
            ref.dropped_gps == from_pipeline.dropped_gps &&
            ref.dropped_scalar == from_pipeline.dropped_scalar &&
            ref.dropped_unordered == from_pipeline.dropped_unordered,
        tag + ": PipelineResult::sanitize disagrees with sanitize_trace");
  check(report, total_samples(copy) + ref.total() == total_samples(raw),
        tag + ": sanitizer dropped+kept != fed (conservation)");
  check(report, sensors::trace_is_clean(copy),
        tag + ": sanitize_trace output is not clean");
}

PipelineStage run_pipeline_stage(FuzzReport& report,
                                 const std::vector<sensors::SensorTrace>& traces,
                                 const vehicle::VehicleParams& params,
                                 const core::PipelineConfig& pcfg,
                                 const FuzzOptions& opts) {
  PipelineStage stage;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::string tag = "pipeline[" + std::to_string(i) + "]";
    core::PipelineResult result;
    try {
      result = core::estimate_gradient(traces[i], params, pcfg);
    } catch (const std::invalid_argument&) {
      ++report.traces_rejected;  // clean rejection: allowed
      continue;
    } catch (const std::exception& e) {
      check(report, false, tag + ": non-rejection exception: " + e.what());
      continue;
    }
    try {
      ++report.invariants_checked;
      result.fused.validate();
      for (const auto& track : result.tracks) track.validate();
    } catch (const std::exception& e) {
      add_violation(report, tag + ": GradeTrack::validate: " + e.what());
    }
    check(report, finite_bounded(result.fused.grade, kBatchGradeBound),
          tag + ": fused grade exceeds " + std::to_string(kBatchGradeBound) +
              " rad");
    check_sanitizer_conservation(report, traces[i], result.sanitize, tag);
    stage.accepted.push_back(i);
    stage.accepted_traces.push_back(traces[i]);
    stage.results.push_back(std::move(result));
  }

  // Batch runs must reproduce the serial results bit-exactly for every
  // pool size.
  if (!stage.accepted_traces.empty()) {
    for (std::size_t n_threads : opts.thread_counts) {
      std::vector<core::PipelineResult> batch;
      try {
        batch = core::run_pipeline_batch(stage.accepted_traces, params, pcfg,
                                         n_threads);
      } catch (const std::exception& e) {
        check(report, false,
              "batch(" + std::to_string(n_threads) +
                  "): exception on traces the serial path accepted: " +
                  e.what());
        continue;
      }
      for (std::size_t k = 0; k < batch.size(); ++k) {
        check(report,
              tracks_bit_identical(batch[k].fused, stage.results[k].fused),
              "batch(" + std::to_string(n_threads) + ")[" + std::to_string(k) +
                  "]: fused track differs from serial run");
      }
    }
  }
  return stage;
}

// ---- stage: online estimator -------------------------------------------

void run_online_stage(FuzzReport& report, const sensors::SensorTrace& trace,
                      const vehicle::VehicleParams& params, std::size_t i) {
  const std::string tag = "online[" + std::to_string(i) + "]";
  core::OnlineGradientEstimator est(params);
  // Merge the five push streams by timestamp (NaN timestamps order first;
  // the estimator must reject them at the boundary).
  const auto key = [](double t) {
    return std::isnan(t) ? -std::numeric_limits<double>::infinity() : t;
  };
  std::size_t ii = 0, gi = 0, si = 0, ci = 0, bi = 0;
  double prev_odometry = 0.0;
  bool failed = false;
  while (!failed &&
         (ii < trace.imu.size() || gi < trace.gps.size() ||
          si < trace.speedometer.size() || ci < trace.canbus_speed.size() ||
          bi < trace.barometer_alt.size())) {
    const double t_imu = ii < trace.imu.size()
                             ? key(trace.imu[ii].t)
                             : std::numeric_limits<double>::infinity();
    const double t_gps = gi < trace.gps.size()
                             ? key(trace.gps[gi].t)
                             : std::numeric_limits<double>::infinity();
    const double t_spd = si < trace.speedometer.size()
                             ? key(trace.speedometer[si].t)
                             : std::numeric_limits<double>::infinity();
    const double t_can = ci < trace.canbus_speed.size()
                             ? key(trace.canbus_speed[ci].t)
                             : std::numeric_limits<double>::infinity();
    const double t_bar = bi < trace.barometer_alt.size()
                             ? key(trace.barometer_alt[bi].t)
                             : std::numeric_limits<double>::infinity();
    const double lo = std::min(std::min(std::min(t_imu, t_gps), t_bar),
                               std::min(t_spd, t_can));
    if (t_bar == lo) {
      est.push_baro(trace.barometer_alt[bi].t, trace.barometer_alt[bi].value);
      ++bi;
    } else if (t_gps == lo) {
      est.push_gps(trace.gps[gi++]);
    } else if (t_spd == lo) {
      est.push_speedometer(trace.speedometer[si].t,
                           trace.speedometer[si].value);
      ++si;
    } else if (t_can == lo) {
      est.push_canbus(trace.canbus_speed[ci].t, trace.canbus_speed[ci].value);
      ++ci;
    } else {
      est.push_imu(trace.imu[ii++]);
      const core::OnlineEstimate e = est.estimate();
      ++report.invariants_checked;
      if (!std::isfinite(e.grade_rad) || !std::isfinite(e.grade_var) ||
          !std::isfinite(e.speed_mps) || !std::isfinite(e.odometry_m) ||
          e.grade_var < 0.0) {
        add_violation(report, tag + ": non-finite estimate at t=" +
                                  std::to_string(e.t));
        failed = true;
      } else if (std::abs(e.grade_rad) > kOnlineGradeBound) {
        add_violation(report, tag + ": grade " + std::to_string(e.grade_rad) +
                                  " rad exceeds bound at t=" +
                                  std::to_string(e.t));
        failed = true;
      } else if (e.odometry_m < prev_odometry - 1e-9) {
        add_violation(report, tag + ": odometry decreased at t=" +
                                  std::to_string(e.t));
        failed = true;
      } else if ((e.sources_fused_mask & e.sources_quarantined_mask) != 0 &&
                 e.sources_fused_mask != e.sources_quarantined_mask) {
        // A quarantined source may only contribute in the all-quarantined
        // fallback, where the two masks are equal by construction.
        add_violation(report,
                      tag + ": quarantined source fused at t=" +
                          std::to_string(e.t));
        failed = true;
      }
      prev_odometry = e.odometry_m;
    }
  }
}

// ---- stage: map matching -----------------------------------------------

void run_matcher_stage(FuzzReport& report, const core::RoadMatcher& matcher,
                       const sensors::SensorTrace& trace, std::size_t i) {
  const std::string tag = "matcher[" + std::to_string(i) + "]";
  // Service-side admission would drop non-finite fixes before matching;
  // do the same so indexed/brute parity is well-defined (NaN distances
  // make "nearest" meaningless in both modes).
  std::vector<sensors::GpsFix> fixes;
  fixes.reserve(trace.gps.size());
  for (const auto& fix : trace.gps) {
    if (std::isfinite(fix.t) && std::isfinite(fix.position.latitude_deg) &&
        std::isfinite(fix.position.longitude_deg)) {
      fixes.push_back(fix);
    }
  }
  if (fixes.empty()) return;
  const auto indexed =
      matcher.match_track(fixes, core::RoadMatcher::Mode::kIndexed);
  const auto brute =
      matcher.match_track(fixes, core::RoadMatcher::Mode::kBruteForce);
  check(report, indexed.size() == brute.size(),
        tag + ": indexed/brute result sizes differ");
  if (indexed.size() != brute.size()) return;
  const double len = matcher.length_m();
  bool parity = true;
  bool in_range = true;
  for (std::size_t k = 0; k < indexed.size(); ++k) {
    if (indexed[k].valid != brute[k].valid) parity = false;
    if (!indexed[k].valid) continue;
    if (std::bit_cast<std::uint64_t>(indexed[k].s_m) !=
            std::bit_cast<std::uint64_t>(brute[k].s_m) ||
        std::bit_cast<std::uint64_t>(indexed[k].lateral_m) !=
            std::bit_cast<std::uint64_t>(brute[k].lateral_m)) {
      parity = false;
    }
    if (!(indexed[k].s_m >= 0.0 && indexed[k].s_m <= len)) in_range = false;
  }
  check(report, parity, tag + ": indexed matcher diverges from brute force");
  check(report, in_range, tag + ": matched arc length outside [0, length]");
}

// ---- stage: map service -------------------------------------------------

service::MapServiceConfig service_config(std::size_t n_shards) {
  service::MapServiceConfig cfg;
  cfg.n_shards = n_shards;
  cfg.fusion.distance_step_m = 5.0;
  return cfg;
}

void check_published_views(FuzzReport& report,
                           const service::ServiceSnapshot& snap,
                           std::uint32_t min_coverage,
                           const std::string& tag) {
  for (const auto& view : snap.roads) {
    check(report, finite_bounded(view.track.grade, kBatchGradeBound),
          tag + ": published grade non-finite or out of bounds");
    bool covered = true;
    for (std::uint32_t c : view.coverage) {
      if (c < min_coverage) covered = false;
    }
    check(report, covered, tag + ": published cell below min_coverage");
    check(report,
          view.cells.size() == view.coverage.size() &&
              view.cells.size() == view.track.size(),
          tag + ": view arrays disagree in size");
  }
}

void run_service_stage(FuzzReport& report, const road::RoadNetwork& network,
                       const std::vector<service::TrackUpload>& uploads,
                       const FuzzOptions& opts) {
  if (uploads.empty()) return;
  std::uint64_t uploaded_samples = 0;
  for (const auto& up : uploads) uploaded_samples += up.track.size();

  // Bit-identity across shard counts x pool sizes, plus counter
  // conservation across layouts.
  std::shared_ptr<const service::ServiceSnapshot> reference;
  std::uint64_t reference_ingested = 0;
  for (std::size_t n_shards : opts.shard_counts) {
    for (std::size_t n_threads : opts.thread_counts) {
      service::MapService svc(network, service_config(n_shards));
      runtime::ThreadPool pool(n_threads);
      svc.ingest(uploads, &pool);
      svc.publish(&pool);
      const auto snap = svc.snapshot();
      const std::string tag = "service(shards=" + std::to_string(n_shards) +
                              ",threads=" + std::to_string(n_threads) + ")";
      if (!reference) {
        reference = snap;
        reference_ingested = svc.total_samples_ingested();
        check_published_views(report, *snap, svc.config().min_coverage, tag);
        check(report, reference_ingested <= uploaded_samples,
              tag + ": ingested more samples than uploaded");
      } else {
        check(report, snapshots_bit_identical(*reference, *snap),
              tag + ": published snapshot differs from reference layout");
        check(report, svc.total_samples_ingested() == reference_ingested,
              tag + ": sample counter differs across layouts");
      }
      std::uint64_t shard_sum = 0;
      for (const auto& st : svc.shard_stats()) shard_sum += st.samples_ingested;
      check(report, shard_sum == svc.total_samples_ingested(),
            tag + ": shard_stats sum != total_samples_ingested");
    }
  }

  // Coverage monotonicity, epoch monotonicity, snapshot immutability, and
  // rebalance exactness on one incrementally fed service.
  {
    service::MapService svc(network, service_config(opts.shard_counts.back()));
    const std::size_t half = uploads.size() / 2;
    const std::vector<service::TrackUpload> first(uploads.begin(),
                                                  uploads.begin() + half);
    const std::vector<service::TrackUpload> rest(uploads.begin() + half,
                                                 uploads.end());
    const auto check_reuse = [&](const char* when) {
      check(report, views_match_merged(svc),
            std::string("service: published view differs from merged view ") +
                when);
    };
    svc.ingest(first);
    const std::uint64_t epoch1 = svc.publish();
    check_reuse("after the first half");
    const auto snap1 = svc.snapshot();
    const std::uint64_t sum1 = snapshot_checksum(*snap1);
    svc.ingest(rest);
    const std::uint64_t epoch2 = svc.publish();
    check_reuse("after the second half");
    const auto snap2 = svc.snapshot();
    check(report, epoch2 > epoch1, "service: epoch not monotone");
    check(report, snapshot_checksum(*snap1) == sum1,
          "service: pinned old snapshot mutated by later publish");
    // Per-cell coverage can only grow.
    bool monotone = snap1->roads.size() == snap2->roads.size();
    for (std::size_t r = 0; monotone && r < snap1->roads.size(); ++r) {
      const auto& before = snap1->roads[r];
      const auto& after = snap2->roads[r];
      std::size_t j = 0;
      for (std::size_t k = 0; k < before.cells.size(); ++k) {
        while (j < after.cells.size() && after.cells[j] < before.cells[k]) ++j;
        if (j == after.cells.size() || after.cells[j] != before.cells[k] ||
            after.coverage[j] < before.coverage[k]) {
          monotone = false;
          break;
        }
      }
    }
    check(report, monotone,
          "service: per-cell coverage not monotone across publishes");
    // Split-batch ingest then rebalance must still match the reference
    // exactly (same upload order on each road's one accumulator), and the
    // durable ingest total must survive the re-sharding (regression:
    // rebalance used to zero it by resetting the per-shard counters it
    // summed).
    const std::uint64_t ingested_before = svc.total_samples_ingested();
    svc.rebalance(opts.shard_counts.front());
    svc.publish();
    check_reuse("after rebalance");
    const auto snap3 = svc.snapshot();
    check(report, reference && snapshots_bit_identical(*reference, *snap3),
          "service: rebalanced split-batch snapshot differs from reference");
    check(report, svc.total_samples_ingested() == ingested_before,
          "service: total_samples_ingested not durable across rebalance");
  }

  // Concurrent ingest_one / publish / pinned readers: integer coverage
  // must converge to the reference exactly (integer adds commute), grades
  // within float-regrouping tolerance, epochs monotone, old epochs
  // immutable while held.
  if (opts.concurrent_service && uploads.size() >= 2 && reference) {
    service::MapService svc(network, service_config(opts.shard_counts.back()));
    std::mutex mu;
    std::vector<std::string> race_violations;
    const auto note = [&](std::string m) {
      const std::lock_guard<std::mutex> lock(mu);
      race_violations.push_back(std::move(m));
    };
    std::atomic<bool> stop{false};
    std::thread publisher([&] {
      std::uint64_t last = svc.epoch();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t e = svc.publish();
        if (e <= last) note("concurrent: publish epoch not increasing");
        last = e;
        std::this_thread::yield();
      }
    });
    std::thread reader([&] {
      std::uint64_t last_epoch = 0;
      std::shared_ptr<const service::ServiceSnapshot> pinned;
      std::uint64_t pinned_sum = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = svc.snapshot();
        if (snap->epoch < last_epoch) {
          note("concurrent: reader observed epoch regression");
        }
        last_epoch = snap->epoch;
        if (pinned && snapshot_checksum(*pinned) != pinned_sum) {
          note("concurrent: pinned snapshot mutated under publish");
        }
        pinned = snap;
        pinned_sum = snapshot_checksum(*snap);
        std::this_thread::yield();
      }
    });
    const std::size_t n_writers = 2;
    std::vector<std::thread> writers;
    for (std::size_t w = 0; w < n_writers; ++w) {
      writers.emplace_back([&, w] {
        for (std::size_t u = w; u < uploads.size(); u += n_writers) {
          svc.ingest_one(uploads[u]);
        }
      });
    }
    for (auto& t : writers) t.join();
    stop.store(true, std::memory_order_relaxed);
    publisher.join();
    reader.join();
    svc.publish();
    const auto final_snap = svc.snapshot();
    check(report, race_violations.empty(),
          race_violations.empty() ? "" : "concurrent: " + race_violations[0]);
    check(report, views_match_merged(svc),
          "concurrent: final publish differs from merged views (lost mark)");
    check(report, svc.total_samples_ingested() == reference_ingested,
          "concurrent: sample counter differs from reference");
    bool coverage_exact = final_snap->roads.size() == reference->roads.size();
    bool grades_close = coverage_exact;
    for (std::size_t r = 0; coverage_exact && r < reference->roads.size();
         ++r) {
      const auto& a = reference->roads[r];
      const auto& b = final_snap->roads[r];
      if (a.cells != b.cells || a.coverage != b.coverage) {
        coverage_exact = false;
        break;
      }
      for (std::size_t k = 0; k < a.track.grade.size(); ++k) {
        const double da = std::abs(a.track.grade[k] - b.track.grade[k]);
        if (!(da <= 1e-6 * std::max(1.0, std::abs(a.track.grade[k])))) {
          grades_close = false;
        }
      }
    }
    check(report, coverage_exact,
          "concurrent: cells/coverage differ from reference (integer adds "
          "must commute)");
    check(report, grades_close,
          "concurrent: fused grades beyond regrouping tolerance");
  }
}

}  // namespace

// ---- composition --------------------------------------------------------

std::string FuzzScenario::summary() const {
  std::string out = "terrain=" + world.summary() + " devices=[";
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (i > 0) out += ",";
    out += sensors::tier_name(devices[i].tier);
  }
  out += "] faults=[";
  for (std::size_t i = 0; i < fault_stacks.size(); ++i) {
    if (i > 0) out += ";";
    if (fault_stacks[i].empty()) out += "none";
    for (std::size_t k = 0; k < fault_stacks[i].size(); ++k) {
      if (k > 0) out += "+";
      out += fault_name(fault_stacks[i][k].kind);
    }
  }
  out += "]";
  return out;
}

FuzzScenario compose_scenario(std::uint64_t seed, const FuzzOptions& opts) {
  FuzzScenario scenario;
  scenario.seed = seed;
  scenario.world = compose_hostile_world(seed);
  Rng rng = Rng(seed).fork("fuzz-scenario");
  const int n_devices =
      1 + static_cast<int>(rng.uniform_int(
              0, static_cast<std::int64_t>(std::max(0, opts.max_devices - 1))));
  scenario.devices = sensors::draw_phone_population(n_devices, seed);
  const auto modes = standard_fault_modes();
  for (int i = 0; i < n_devices; ++i) {
    scenario.trips.push_back(draw_driving_profile(
        seed + static_cast<std::uint64_t>(i) * kTripSeedStride));
    Rng fault_rng = rng.fork("faults-" + std::to_string(i));
    std::vector<FaultSpec> stack;
    const int n_faults = static_cast<int>(fault_rng.uniform_int(0, 2));
    for (int k = 0; k < n_faults; ++k) {
      const FaultKind kind = modes[static_cast<std::size_t>(
          fault_rng.uniform_int(0, static_cast<std::int64_t>(modes.size()) - 1))];
      stack.push_back(make_fault(
          kind, seed ^ Rng::hash_tag(fault_name(kind)) ^
                    (static_cast<std::uint64_t>(i) << 40)));
    }
    scenario.fault_stacks.push_back(std::move(stack));
  }
  return scenario;
}

// ---- the full case ------------------------------------------------------

FuzzReport run_fuzz_case(std::uint64_t seed, const FuzzOptions& opts) {
  FuzzReport report;
  report.seed = seed;
  try {
    const vehicle::VehicleParams params;
    const core::PipelineConfig pcfg;
    const FuzzScenario scenario = compose_scenario(seed, opts);
    report.scenario = scenario.summary();

    std::vector<sensors::SensorTrace> traces;
    for (int i = 0; i < static_cast<int>(scenario.devices.size()); ++i) {
      traces.push_back(simulate_device(scenario, i, params, nullptr));
    }
    report.traces_total = static_cast<int>(traces.size());

    PipelineStage stage =
        run_pipeline_stage(report, traces, params, pcfg, opts);

    for (std::size_t i = 0; i < traces.size(); ++i) {
      run_online_stage(report, traces[i], params, i);
    }

    const core::RoadMatcher matcher(scenario.world.road);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      run_matcher_stage(report, matcher, traces[i], i);
    }

    // Service admission: rekey each accepted fused track onto road arc
    // length; tracks the matcher cannot anchor (GPS denied too long) or
    // that fail validation are skipped — a service would reject them too.
    std::vector<service::TrackUpload> uploads;
    for (std::size_t k = 0; k < stage.results.size(); ++k) {
      try {
        service::TrackUpload up;
        up.road = 0;
        up.track = core::rekey_track_by_road(stage.results[k].fused,
                                             scenario.world.road,
                                             stage.accepted_traces[k].gps);
        up.track.validate();
        uploads.push_back(std::move(up));
      } catch (const std::exception&) {
        // admission rejection: allowed
      }
    }
    report.uploads_admitted = static_cast<int>(uploads.size());

    road::RoadNetwork network;
    network.add(road::NetworkRoad{scenario.world.road,
                                  road::RoadClass::kArterial});
    run_service_stage(report, network, uploads, opts);
  } catch (const std::exception& e) {
    add_violation(report, std::string("harness: escaped exception: ") +
                              e.what());
  } catch (...) {
    add_violation(report, "harness: escaped non-std exception");
  }
  return report;
}

std::vector<std::uint64_t> fuzz_corpus() {
  // 24 composed hostile scenarios spanning the motif/fault space, plus
  // minimized regression seeds appended as the fuzzer finds bugs (keep
  // them commented with what they caught).
  //
  // Seeds 7 and 23 (nan_spikes fault stacks) are the regression seeds for
  // the SegmentIndex::nearest() non-finite-query infinite loop: a NaN GPS
  // position reaching rekey_track_by_road made the ring search spin
  // forever (floor(NaN) start cell, no candidate ever improves). Fixed by
  // the non-finite guard in src/road/spatial_index.cpp.
  return {
      1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12,
      13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
  };
}

}  // namespace rge::testing

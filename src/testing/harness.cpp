#include "testing/harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <string>

#include "core/online_estimator.hpp"
#include "obs/obs.hpp"
#include "testing/json.hpp"
#include "testing/scenario.hpp"

namespace rge::testing {

namespace {

bool tracks_bit_identical(const core::GradeTrack& a,
                          const core::GradeTrack& b) {
  return a.t == b.t && a.grade == b.grade && a.grade_var == b.grade_var &&
         a.speed == b.speed && a.s == b.s;
}

/// Milliseconds spent in spans named `name` between two span_totals()
/// reads.
double span_ms_between(const std::map<std::string, obs::SpanTotal>& before,
                       const std::map<std::string, obs::SpanTotal>& after,
                       const std::string& name) {
  const auto total_ns = [&](const std::map<std::string, obs::SpanTotal>& m) {
    const auto it = m.find(name);
    return it == m.end() ? std::int64_t{0} : it->second.total_ns;
  };
  return static_cast<double>(total_ns(after) - total_ns(before)) * 1e-6;
}

class Reporter {
 public:
  explicit Reporter(std::ostream& log) : log_(log) {}

  void pass(const std::string& scenario, const std::string& what) {
    log_ << "[ ok ] " << scenario << ": " << what << "\n";
  }
  void fail(const std::string& scenario, const std::string& what) {
    ++failures_;
    log_ << "[FAIL] " << scenario << ": " << what << "\n";
  }
  void note(const std::string& line) { log_ << "       " << line << "\n"; }

  int failures() const { return failures_; }

 private:
  std::ostream& log_;
  int failures_ = 0;
};

/// Does the online defense layer care about this fault? (The other modes
/// perturb streams the velocity gate cannot see, e.g. barometer steps.)
bool defense_relevant(FaultKind kind) {
  return kind == FaultKind::kAccelBiasRamp ||
         kind == FaultKind::kGpsSpoofJump || kind == FaultKind::kStuckSensor;
}

struct OnlineDefenseOutcome {
  bool finite = true;
  std::uint64_t gate_rejected = 0;  ///< across all three velocity sources
  int quarantined = 0;              ///< sources in quarantine at trace end
};

/// Stream trip 0's faulted trace through a default-config (defended)
/// online estimator, merged by timestamp the same way the fuzzer does.
/// This is what populates the online.gate_rejected.* / online.health.* /
/// online.quarantined.* counters in the harness metrics snapshot.
OnlineDefenseOutcome replay_online_defended(
    const sensors::SensorTrace& trace) {
  const vehicle::VehicleParams params;
  core::OnlineGradientEstimator est(params);
  const auto key = [](double t) {
    return std::isnan(t) ? -std::numeric_limits<double>::infinity() : t;
  };
  OnlineDefenseOutcome out;
  std::size_t ii = 0, gi = 0, si = 0, ci = 0, bi = 0;
  while (ii < trace.imu.size() || gi < trace.gps.size() ||
         si < trace.speedometer.size() || ci < trace.canbus_speed.size() ||
         bi < trace.barometer_alt.size()) {
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
    }
  }
  const core::OnlineEstimate e = est.estimate();
  out.finite = std::isfinite(e.grade_rad) && std::isfinite(e.speed_mps) &&
               std::isfinite(e.grade_var) && e.grade_var >= 0.0;
  for (const core::VelocitySource src :
       {core::VelocitySource::kGps, core::VelocitySource::kSpeedometer,
        core::VelocitySource::kCanbus}) {
    const core::SourceDiagnostics diag = est.source_diagnostics(src);
    out.gate_rejected += diag.gate_rejected;
    if (diag.quarantined) ++out.quarantined;
  }
  return out;
}

/// <dir>/BENCH_scenarios.json -> <dir>/BENCH_scenarios_metrics.json.
std::string metrics_path_for(const std::string& bench_out) {
  const std::string suffix = ".json";
  if (bench_out.size() >= suffix.size() &&
      bench_out.compare(bench_out.size() - suffix.size(), suffix.size(),
                        suffix) == 0) {
    return bench_out.substr(0, bench_out.size() - suffix.size()) +
           "_metrics.json";
  }
  return bench_out + "_metrics.json";
}

}  // namespace

int run_harness(const HarnessOptions& opts, std::ostream& log) {
  Reporter report(log);
  Json::Array bench_rows;

  // Observability: counters whenever we are writing a report. Spans are
  // collected for every clean run (the per-stage breakdown is read from
  // them) and for the whole run only when a trace export was requested
  // (span collection is the costly bit).
  const bool collect_metrics =
      obs::kCompiledIn && (!opts.bench_out.empty() || !opts.trace_out.empty());
  const bool collect_trace = obs::kCompiledIn && !opts.trace_out.empty();
  const bool prev_enabled = obs::enabled();
  const bool prev_tracing = obs::tracing_enabled();
  if (collect_metrics) {
    obs::reset_all();
    obs::set_enabled(true);
    obs::set_tracing(collect_trace);
    obs::set_thread_name("harness-main");
  }

  std::vector<ScenarioSpec> matrix = scenario_matrix();
  if (!opts.scenarios.empty()) {
    std::erase_if(matrix, [&](const ScenarioSpec& s) {
      return std::find(opts.scenarios.begin(), opts.scenarios.end(),
                       s.name) == opts.scenarios.end();
    });
    if (matrix.empty()) {
      log << "[FAIL] no scenario matches the requested names\n";
      return 1;
    }
  }

  const FaultSpec clean = make_fault(FaultKind::kNone);

  for (const ScenarioSpec& spec : matrix) {
    OBS_SPAN_DYN("scenario." + spec.name);
    const ScenarioWorld world = build_world(spec);

    // ---- clean run (timed; stage breakdown from its obs spans) --------
    if (collect_metrics) obs::set_tracing(true);
    const auto spans_before = obs::span_totals();
    const auto t0 = std::chrono::steady_clock::now();
    ScenarioRun base;
    std::optional<std::string> clean_error;
    try {
      base = run_scenario(spec, world, clean, 1);
    } catch (const std::exception& e) {
      clean_error = e.what();
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    const auto spans_after = obs::span_totals();
    if (collect_metrics) obs::set_tracing(collect_trace);
    if (clean_error) {
      report.fail(spec.name, "clean run threw: " + *clean_error);
      continue;
    }
    if (base.rejected) {
      report.fail(spec.name, "clean run rejected: " + base.reject_reason);
      continue;
    }
    report.pass(spec.name, "clean run");

    {
      Json row;
      row["scenario"] = Json(spec.name);
      row["wall_ms"] = Json(wall_ms);
      row["trips"] = Json(static_cast<double>(world.traces.size()));
      row["imu_samples"] =
          Json(static_cast<double>(world.traces.front().imu.size() *
                                   world.traces.size()));
      const auto stage_ms = [&](const char* name) {
        return span_ms_between(spans_before, spans_after, name);
      };
      Json stages_json;
      stages_json["align_ms"] = Json(stage_ms("pipeline.align"));
      stages_json["detect_ms"] = Json(stage_ms("pipeline.detect"));
      stages_json["ekf_ms"] = Json(stage_ms("pipeline.ekf"));
      // Per-trip fusion plus the cross-trip cloud fusion.
      stages_json["fuse_ms"] = Json(stage_ms("pipeline.fuse") +
                                    stage_ms("fusion.distance_batch"));
      row["stages"] = stages_json;
      row["metrics"] = base.metrics.to_json();
      bench_rows.push_back(std::move(row));
    }

    // ---- determinism: rerun + thread sweep ----------------------------
    bool deterministic = true;
    for (const std::size_t threads : opts.thread_counts) {
      ScenarioRun again = run_scenario(spec, world, clean, threads);
      if (again.rejected || !tracks_bit_identical(base.fused, again.fused) ||
          !base.metrics.bit_identical(again.metrics)) {
        deterministic = false;
        report.fail(spec.name,
                    "not bit-identical at threads=" + std::to_string(threads));
      }
    }
    if (deterministic) {
      std::string counts;
      for (const std::size_t threads : opts.thread_counts) {
        counts += (counts.empty() ? "" : "/") + std::to_string(threads);
      }
      report.pass(spec.name, "bit-identical across threads " + counts);
    }

    // ---- golden comparison --------------------------------------------
    if (!opts.goldens_dir.empty()) {
      const std::string path = opts.goldens_dir + "/" + spec.name + ".json";
      if (opts.update_goldens) {
        write_json_file(golden_to_json(spec.name, base.metrics,
                                       default_tolerances(base.metrics)),
                        path);
        report.pass(spec.name, "golden updated -> " + path);
      } else {
        try {
          const Json golden = read_json_file(path);
          const GoldenComparison cmp =
              compare_to_golden(base.metrics, golden);
          if (cmp.ok) {
            report.pass(spec.name, "metrics within golden tolerance");
          } else {
            report.fail(spec.name, "metrics outside golden tolerance");
            for (const auto& f : cmp.failures) report.note(f);
          }
        } catch (const std::exception& e) {
          report.fail(spec.name, std::string("golden unreadable: ") +
                                     e.what() +
                                     " (run --update-goldens to create)");
        }
      }
    }

    // ---- fault-injection column ---------------------------------------
    if (opts.run_faults) {
      for (const FaultKind kind : standard_fault_modes()) {
        const std::string label = "fault " + fault_name(kind);
        try {
          const ScenarioRun faulted =
              run_scenario(spec, world, make_fault(kind), 1);
          if (faulted.rejected) {
            report.pass(spec.name, label + ": rejected cleanly (" +
                                       faulted.reject_reason + ")");
            continue;
          }
          // run_scenario already validate()d the fused track (finite,
          // monotone keys); also require the per-source tracks to hold
          // the invariants and the output to retain real coverage.
          for (const auto& track : faulted.tracks) track.validate();
          if (faulted.fused.size() == 0) {
            report.fail(spec.name, label + ": empty fused track");
          } else if (!std::isfinite(faulted.metrics.grade_rmse_deg)) {
            report.fail(spec.name, label + ": non-finite metrics");
          } else {
            report.pass(spec.name, label + ": degraded gracefully");
          }
          // ---- online-defense column: velocity-visible faults only ----
          if (defense_relevant(kind)) {
            sensors::SensorTrace faulted_trace = world.traces.front();
            apply_fault(faulted_trace, make_fault(kind));
            const OnlineDefenseOutcome defense =
                replay_online_defended(faulted_trace);
            if (!defense.finite) {
              report.fail(spec.name,
                          label + ": defended online estimate non-finite");
            } else {
              report.pass(spec.name,
                          label + ": online defense (gated=" +
                              std::to_string(defense.gate_rejected) +
                              ", quarantined=" +
                              std::to_string(defense.quarantined) + ")");
            }
          }
        } catch (const std::exception& e) {
          report.fail(spec.name, label + ": threw " + e.what());
        }
      }
    }
  }

  if (!opts.bench_out.empty()) {
    Json doc;
    doc["schema"] = Json("rge-bench-scenarios-v1");
    doc["rows"] = Json(std::move(bench_rows));
    write_json_file(doc, opts.bench_out);
    log << "bench report -> " << opts.bench_out << "\n";
  }

  if (collect_metrics) {
    if (!opts.bench_out.empty()) {
      const std::string path = metrics_path_for(opts.bench_out);
      if (obs::write_metrics_json(path)) {
        log << "metrics snapshot -> " << path << "\n";
      } else {
        report.fail("harness", "could not write metrics snapshot " + path);
      }
    }
    if (!opts.trace_out.empty()) {
      if (obs::write_chrome_trace(opts.trace_out)) {
        log << "chrome trace -> " << opts.trace_out << "\n";
      } else {
        report.fail("harness", "could not write trace " + opts.trace_out);
      }
    }
    obs::set_enabled(prev_enabled);
    obs::set_tracing(prev_tracing);
  }

  log << (report.failures() == 0 ? "SCENARIO MATRIX OK"
                                 : "SCENARIO MATRIX FAILED")
      << " (" << matrix.size() << " scenarios, " << report.failures()
      << " failures)\n";
  return report.failures();
}

}  // namespace rge::testing

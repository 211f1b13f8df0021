#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>

#include "math/simd.hpp"
#include "math/stats.hpp"
#include "obs/obs.hpp"

namespace e2e {

namespace {

/// Σ layer self times + unattributed must match the loop's own epoch
/// wall-clock within this share.
constexpr double kAccountingTolerance = 0.02;

double pct(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : rge::math::percentile(xs, p);
}

double median(std::vector<double> xs) { return pct(xs, 0.5); }

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0
                    : std::accumulate(xs.begin(), xs.end(), 0.0) /
                          static_cast<double>(xs.size());
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Windows of `w` that lie wholly inside the timed phase.
std::size_t complete_windows(const Windowed& w, double wall_s) {
  return std::min(w.windows.size(),
                  static_cast<std::size_t>(wall_s / w.window_s + 1e-9));
}

/// Percentile `p` of each complete, non-empty window.
std::vector<double> per_window_pct(const Windowed& w, double wall_s,
                                   double p) {
  std::vector<double> per;
  for (std::size_t i = 0; i < complete_windows(w, wall_s); ++i) {
    if (!w.windows[i].empty()) per.push_back(pct(w.windows[i], p));
  }
  return per;
}

/// Rate of each complete window: items finished in the window over the
/// epoch time they took (closed loops), or over the window length when the
/// workload has no closed-loop epochs.
std::vector<double> per_window_rate(const Windowed& done,
                                    const Windowed& busy_s, double wall_s) {
  auto sum = [](const Windowed& w, std::size_t i) {
    return i < w.windows.size() ? std::accumulate(w.windows[i].begin(),
                                                  w.windows[i].end(), 0.0)
                                : 0.0;
  };
  std::vector<double> per;
  for (std::size_t i = 0; i < complete_windows(done, wall_s); ++i) {
    const double busy = busy_s.windows.empty() ? done.window_s : sum(busy_s, i);
    if (busy > 0.0) per.push_back(sum(done, i) / busy);
  }
  return per;
}

/// End-to-end metrics per window. Each metric is the better-quartile
/// window of its row (75th percentile of rates, 25th of latencies): host
/// interference only ever slows a window, so the better quarter of the
/// run tracks the program rather than its neighbours, while a change to
/// the program moves every window.
std::vector<std::pair<MetricValue, std::vector<double>>> windowed_metrics(
    const RunResult& r) {
  return {
      {{"throughput_per_s", 0.0, "1/s"},
       per_window_rate(r.done, r.busy_s, r.wall_s)},
      {{"staleness_ms_p50", 0.0, "ms"},
       per_window_pct(r.staleness_ms, r.wall_s, 0.5)},
      {{"staleness_ms_p90", 0.0, "ms"},
       per_window_pct(r.staleness_ms, r.wall_s, 0.9)},
      {{"read_ms_p50", 0.0, "ms"}, per_window_pct(r.read_ms, r.wall_s, 0.5)},
      {{"read_ms_p99", 0.0, "ms"}, per_window_pct(r.read_ms, r.wall_s, 0.99)},
  };
}

/// Self time and durations of every span name across all logs of a run.
struct LayerAgg {
  double self_ms = 0.0;
  std::vector<double> dur_ms;
};

struct SpanSummary {
  std::map<std::string, LayerAgg> layers;
  double epoch_tree_self_ms = 0.0;  ///< Σ self times inside epoch trees
};

/// A span's self time is its duration minus its children's; spans of one
/// log nest strictly (scopes on one thread), so children never overlap.
SpanSummary summarize(const RunResult& r) {
  SpanSummary s;
  for (const SpanLog& log : r.logs) {
    const auto& spans = log.spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    std::vector<bool> in_epoch(spans.size(), false);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const int p = spans[i].parent;
      if (p >= 0) {
        child_ms[static_cast<std::size_t>(p)] += spans[i].ms();
        in_epoch[i] = in_epoch[static_cast<std::size_t>(p)];
      }
      if (spans[i].name == std::string(layer::kEpoch)) in_epoch[i] = true;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double self = spans[i].ms() - child_ms[i];
      LayerAgg& a = s.layers[spans[i].name];
      a.self_ms += self;
      a.dur_ms.push_back(spans[i].ms());
      if (in_epoch[i]) s.epoch_tree_self_ms += self;
    }
  }
  return s;
}

const LayerAgg& agg(const SpanSummary& s, const char* name) {
  static const LayerAgg kEmpty;
  const auto it = s.layers.find(name);
  return it == s.layers.end() ? kEmpty : it->second;
}

std::string json_escape(const std::string& in) {
  std::string out;
  for (const char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) { return "\"" + json_escape(s) + "\""; }

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

std::vector<MetricValue> end_to_end_metrics(const RunResult& r) {
  std::vector<MetricValue> out{{"setup_s", median(r.setup_s), "s"}};
  for (auto& [m, per] : windowed_metrics(r)) {
    m.value = pct(per, m.unit == "1/s" ? 0.75 : 0.25);
    out.push_back(m);
  }
  out.push_back({"grade_mae_deg", r.grade_mae_deg, "deg"});
  out.push_back({"rss_mb", r.rss_mb, "MB"});
  return out;
}

std::vector<MetricValue> per_layer_metrics(
    const RunResult& untraced, const RunResult& traced,
    const RunResult& single, std::vector<std::string>& gate_failures,
    std::string& accounting_note) {
  const SpanSummary t = summarize(traced);
  const SpanSummary one = summarize(single);
  const double epochs = static_cast<double>(std::max<std::uint64_t>(1, traced.epochs));
  auto per_epoch = [&](const char* name) { return agg(t, name).self_ms / epochs; };
  auto us = [](std::vector<double> ms) {
    for (double& x : ms) x *= 1000.0;
    return ms;
  };

  const double trips = static_cast<double>(traced.trips);
  const double pipe_ms_per_trip = ratio(agg(t, layer::kPipeline).self_ms, trips);
  const double pipe_ms_per_trip_1 =
      ratio(agg(one, layer::kPipeline).self_ms, static_cast<double>(single.trips));
  const double ns_per_fix = ratio(agg(t, layer::kIngest).self_ms * 1e6,
                                  static_cast<double>(traced.fixes_ingested));
  const double ns_per_fix_1 = ratio(agg(one, layer::kIngest).self_ms * 1e6,
                                    static_cast<double>(single.fixes_ingested));
  double skew = 0.0;
  if (!traced.shard_samples.empty()) {
    std::vector<double> s(traced.shard_samples.begin(), traced.shard_samples.end());
    skew = ratio(*std::max_element(s.begin(), s.end()), mean(s));
  }
  const double routes = static_cast<double>(traced.routes);

  // Accounting: layer self times + unattributed vs the loop's epoch wall.
  const double loop_epoch_ms =
      std::accumulate(traced.epoch_ms.begin(), traced.epoch_ms.end(), 0.0);
  const double gap = ratio(std::abs(t.epoch_tree_self_ms - loop_epoch_ms),
                           loop_epoch_ms);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "span accounting: layer self + unattributed = %.3f ms vs "
                "epoch wall %.3f ms (gap %.4f, tolerance %.2f)",
                t.epoch_tree_self_ms, loop_epoch_ms, gap, kAccountingTolerance);
  accounting_note = buf;
  if (!(gap <= kAccountingTolerance)) gate_failures.push_back(accounting_note);

  const double tput_untraced =
      ratio(static_cast<double>(untraced.items), untraced.wall_s);
  const double tput_traced = ratio(static_cast<double>(traced.items), traced.wall_s);

  return {
      {"core.pipeline.busy_ms", per_epoch(layer::kPipeline), "ms"},
      {"core.pipeline.ms_per_trip", pipe_ms_per_trip, "ms"},
      {"core.pipeline.failed", static_cast<double>(traced.trips_failed), "count"},
      {"core.pipeline.speedup_1_to_n", ratio(pipe_ms_per_trip_1, pipe_ms_per_trip), "x"},
      {"core.match.busy_ms", per_epoch(layer::kMatch), "ms"},
      {"core.match.ms_per_trip",
       ratio(agg(t, layer::kMatch).self_ms, static_cast<double>(traced.rekeys)), "ms"},
      {"core.match.failed", static_cast<double>(traced.rekeys_failed), "count"},
      {"service.ingest.busy_ms", per_epoch(layer::kIngest), "ms"},
      {"service.ingest.ns_per_fix", ns_per_fix, "ns"},
      {"service.ingest.shard_skew", skew, "x"},
      {"service.ingest.speedup_1_to_n", ratio(ns_per_fix_1, ns_per_fix), "x"},
      {"service.ingest.unattributed_frac",
       ratio(static_cast<double>(traced.samples_unattributed),
             static_cast<double>(traced.samples_uploaded)),
       "ratio"},
      {"service.publish.ms_p50", pct(agg(t, layer::kPublish).dur_ms, 0.5), "ms"},
      {"service.publish.ms_p90", pct(agg(t, layer::kPublish).dur_ms, 0.9), "ms"},
      {"service.publish.covered_cells", static_cast<double>(traced.covered_cells), "count"},
      {"service.snapshot.us_p50", pct(us(agg(t, layer::kSnapshot).dur_ms), 0.5), "us"},
      {"service.snapshot.reads",
       static_cast<double>(agg(t, layer::kSnapshot).dur_ms.size()), "count"},
      {"planning.graph.ms", mean(agg(t, layer::kGraph).dur_ms), "ms"},
      {"planning.freeze.ms", mean(agg(t, layer::kFreeze).dur_ms), "ms"},
      {"planning.freeze.cost_tables_ms",
       ratio(traced.cost_tables_ms, static_cast<double>(traced.freezes)), "ms"},
      {"planning.freeze.landmarks_ms",
       ratio(traced.landmarks_ms, static_cast<double>(traced.freezes)), "ms"},
      {"planning.route.us_p50", pct(us(agg(t, layer::kRoute).dur_ms), 0.5), "us"},
      {"planning.route.us_p99", pct(us(agg(t, layer::kRoute).dur_ms), 0.99), "us"},
      {"planning.route.settled_mean", ratio(traced.settled_sum, routes), "count"},
      {"planning.route.pushed_mean", ratio(traced.pushed_sum, routes), "count"},
      {"planning.route.path_over_settled",
       ratio(traced.path_over_settled_sum, routes), "ratio"},
      {"epoch.unattributed_ms", per_epoch(layer::kEpoch), "ms"},
      {"epoch.accounting_gap_frac", gap, "ratio"},
      {"trace.overhead_frac", ratio(tput_untraced, tput_traced) - 1.0, "ratio"},
  };
}

std::string meta_json(const RunMeta& m, const std::vector<const RunResult*>& runs,
                      const std::vector<std::string>& notes) {
  std::ostringstream o;
  o << "{\"workload\":" << str(m.workload) << ",\"seed\":" << m.seed
    << ",\"seconds\":" << num(m.seconds) << ",\"trace\":" << (m.trace ? 1 : 0)
    << ",\"git_sha\":" << str(m.git_sha) << ",\"cpu_model\":" << str(cpu_model())
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"pool_threads\":" << m.threads << ",\"setup_reps\":" << m.setup_reps
    << ",\"compiler\":" << str(E2E_COMPILER) << ",\"build_type\":" << str(E2E_BUILD_TYPE)
    << ",\"cxx_flags\":" << str(E2E_CXX_FLAGS) << ",\"RGE_SIMD\":" << str(E2E_RGE_SIMD)
    << ",\"simd_kernels\":" << (rge::math::simd_enabled() ? "true" : "false")
    << ",\"RGE_OBSERVABILITY\":" << str(E2E_RGE_OBSERVABILITY)
    << ",\"obs_runtime_enabled\":" << (rge::obs::enabled() ? "true" : "false")
    << ",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = *runs[i];
    o << (i ? "," : "") << "{\"item\":" << str(r.item) << ",\"items\":" << r.items
      << ",\"wall_s\":" << num(r.wall_s) << ",\"epochs\":" << r.epochs
      << ",\"window_s\":" << num(r.done.window_s)
      << ",\"windows\":" << complete_windows(r.done, r.wall_s)
      << ",\"staleness_samples\":" << r.staleness_ms.count()
      << ",\"read_samples\":" << r.read_ms.count()
      << ",\"samples_uploaded\":" << r.samples_uploaded
      << ",\"samples_unattributed\":" << r.samples_unattributed
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"rss_peak_reset\":" << (r.rss_from_reset ? "true" : "false")
      << ",\"per_window\":{";
    const auto rows = windowed_metrics(r);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      o << (k ? "," : "") << str(rows[k].first.name) << ":[";
      for (std::size_t w = 0; w < rows[k].second.size(); ++w) {
        o << (w ? "," : "") << num(rows[k].second[w]);
      }
      o << "]";
    }
    o << "}"
      << ",\"gates\":[";
    for (std::size_t g = 0; g < r.gate_notes.size(); ++g) {
      o << (g ? "," : "") << str(r.gate_notes[g]);
    }
    o << "],\"gate_failures\":[";
    for (std::size_t g = 0; g < r.gate_failures.size(); ++g) {
      o << (g ? "," : "") << str(r.gate_failures[g]);
    }
    o << "]}";
  }
  o << "],\"notes\":[";
  for (std::size_t i = 0; i < notes.size(); ++i) o << (i ? "," : "") << str(notes[i]);
  o << "]}";
  return o.str();
}

std::string result_json(bool correct, unsigned long long attempted,
                        unsigned long long failed,
                        const std::vector<MetricValue>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << str(metrics[i].name) << ": {\"value\": "
      << num(metrics[i].value) << ", \"unit\": " << str(metrics[i].unit) << "}";
  }
  o << "}}";
  return o.str();
}

}  // namespace e2e

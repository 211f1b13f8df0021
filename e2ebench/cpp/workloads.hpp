// The three workloads. Each one sets the chain up `setup_reps` times
// (timing each), keeps the last set-up, runs its timed phase for
// `seconds` (and at least `min_epochs` epochs), then runs the correctness
// gates on what it produced. Spans are recorded only when `trace` is on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "scene.hpp"
#include "trace.hpp"

namespace e2e {

/// Samples of the timed phase grouped into consecutive time windows of
/// `window_s`; metrics are medians over complete windows, so a burst of
/// host interference that covers a minority of the run does not move them.
struct Windowed {
  double window_s = 1.0;
  std::vector<std::vector<double>> windows;

  void add(double t_s, double v) {
    const auto i = static_cast<std::size_t>(std::max(0.0, t_s) / window_s);
    if (i >= windows.size()) windows.resize(i + 1);
    windows[i].push_back(v);
  }
  void merge(const Windowed& o) {
    if (o.windows.size() > windows.size()) windows.resize(o.windows.size());
    for (std::size_t i = 0; i < o.windows.size(); ++i) {
      windows[i].insert(windows[i].end(), o.windows[i].begin(),
                        o.windows[i].end());
    }
  }
  std::size_t count() const {
    std::size_t n = 0;
    for (const auto& w : windows) n += w.size();
    return n;
  }
};

struct RunConfig {
  double seconds = 10.0;
  /// Pool size: service/pipeline thread pool for survey and uploads,
  /// route client threads for routes.
  std::size_t threads = 4;
  bool trace = false;
  std::size_t setup_reps = 1;
  std::size_t min_epochs = 1;
  double window_s = 1.0;  ///< see Windowed
};

/// Raw measurements of one run, summarised by report.cpp.
struct RunResult {
  std::string item;  ///< unit of work counted in `items`
  std::vector<double> setup_s;
  double wall_s = 0.0;      ///< timed phase
  std::uint64_t items = 0;  ///< trips / fixes / routes completed
  std::uint64_t epochs = 0;
  std::vector<double> epoch_ms;  ///< wall time of each timed epoch
  Windowed done;                 ///< items, by completion time
  Windowed busy_s;               ///< epoch durations (closed loops only)
  Windowed staleness_ms;         ///< per epoch, due -> first reader
  Windowed read_ms;              ///< reader operation latencies
  double grade_mae_deg = 0.0;
  double rss_mb = 0.0;
  bool rss_from_reset = false;  ///< peak RSS scoped by clear_refs

  std::uint64_t attempted = 0;  ///< trips, rekeys, ingests and routes
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  std::vector<std::string> gate_notes;  ///< what the gates checked
  double gates_s = 0.0;                 ///< time the gates took

  // Per-layer counts from per-instance APIs.
  std::uint64_t trips = 0;
  std::uint64_t trips_failed = 0;
  std::uint64_t rekeys = 0;
  std::uint64_t rekeys_failed = 0;
  std::uint64_t fixes_ingested = 0;
  std::uint64_t samples_uploaded = 0;      ///< whole run incl. warm-up
  std::uint64_t samples_unattributed = 0;  ///< uploaded - total ingested
  std::vector<std::uint64_t> shard_samples;  ///< MapService::shard_stats()
  std::uint64_t covered_cells = 0;
  std::uint64_t freezes = 0;
  double cost_tables_ms = 0.0;  ///< sums of CsrGraph::build_stats()
  double landmarks_ms = 0.0;
  std::uint64_t routes = 0;
  double settled_sum = 0.0;  ///< sums of QueryContext::stats()
  double pushed_sum = 0.0;
  double path_over_settled_sum = 0.0;

  /// One span log per thread (writer first, then route clients).
  std::vector<SpanLog> logs;
};

RunResult run_survey(const SurveyScene& sc, const RunConfig& rc);
RunResult run_uploads(const FleetScene& sc, const RunConfig& rc);
RunResult run_routes(const FleetScene& sc, const RunConfig& rc);

}  // namespace e2e

// Scenario-matrix harness: the engine behind `ctest -L scenario` and the
// tests/scenario_runner CLI.
//
// For every scenario in the committed matrix it (1) runs the clean
// pipeline and compares the accuracy metrics against the golden baseline
// in tests/golden/<name>.json with per-metric tolerance bands, (2) proves
// determinism — bit-identical fused tracks and metrics across reruns and
// across 1/2/8 runtime threads, (3) replays every standard fault mode and
// asserts graceful degradation or clean rejection (never a crash, never a
// non-finite grade), and (4) records per-scenario wall time plus the
// align/detect/ekf/fuse stage breakdown into BENCH_scenarios.json, read
// from the obs span totals (obs::span_totals()) of the clean run.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace rge::testing {

struct HarnessOptions {
  /// Scenario names to run; empty runs the whole matrix.
  std::vector<std::string> scenarios;
  /// Directory of golden JSON baselines (tests/golden). Empty skips the
  /// golden comparison (fault + determinism checks still run).
  std::string goldens_dir;
  /// Rewrite goldens from this run instead of comparing. Only legitimate
  /// when accuracy genuinely changed — see EXPERIMENTS.md.
  bool update_goldens = false;
  /// Path for the per-scenario perf report; empty skips it. When set, the
  /// observability counters collected during the run are written next to
  /// it (<bench_out stem>_metrics.json).
  std::string bench_out;
  /// Path for a Chrome-trace (chrome://tracing / Perfetto) span export;
  /// empty skips it. Setting this enables span collection for the run.
  std::string trace_out;
  /// Thread counts the determinism sweep must agree across.
  std::vector<std::size_t> thread_counts = {1, 2, 8};
  /// Run the fault-injection column of the matrix.
  bool run_faults = true;
};

/// Run the matrix, streaming a line-per-check report to `log`.
/// Returns the number of failed checks (0 == success).
int run_harness(const HarnessOptions& opts, std::ostream& log);

}  // namespace rge::testing

// Metrics from raw run measurements, host/build metadata, and the JSON
// lines the benchmark prints.
#pragma once

#include <string>
#include <vector>

#include "workloads.hpp"

namespace e2e {

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The end-to-end metrics of an untraced run.
std::vector<MetricValue> end_to_end_metrics(const RunResult& r);

/// Per-layer metrics: spans of `traced` (pool size N), `single` (the same
/// workload traced at pool size 1) and `untraced` for the tracing
/// overhead. Appends to `gate_failures` if the span accounting is off.
std::vector<MetricValue> per_layer_metrics(
    const RunResult& untraced, const RunResult& traced,
    const RunResult& single, std::vector<std::string>& gate_failures,
    std::string& accounting_note);

struct RunMeta {
  std::string workload;
  unsigned long long seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t threads = 0;
  std::size_t setup_reps = 0;
  std::string git_sha;
};

/// One JSON object with host, build and run metadata plus the per-run
/// details of `runs` (counts, gates).
std::string meta_json(const RunMeta& m, const std::vector<const RunResult*>& runs,
                      const std::vector<std::string>& notes);

/// The benchmark's last output line.
std::string result_json(bool correct, unsigned long long attempted,
                        unsigned long long failed,
                        const std::vector<MetricValue>& metrics);

}  // namespace e2e

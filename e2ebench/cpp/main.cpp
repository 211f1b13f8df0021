// e2e_bench: the whole chain — phone trace -> core estimation -> service
// map -> planning routes — in one process, for one workload.
//
//   e2e_bench --workload survey|uploads|routes --seed N --seconds S
//             --trace 0|1 [--git-sha SHA]
//
// --trace 0 prints the end-to-end metrics of one untraced run. --trace 1
// splits the time into three runs (untraced, traced at the full pool
// size, traced at pool size 1) and prints the per-layer metrics. The last
// stdout line is the result JSON; the line before it ("meta: ...") holds
// host, build and run metadata. Exit status 1 when a correctness gate
// fails, 2 on bad arguments or errors.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <numeric>
#include <string>
#include <thread>

#include "planning/city_gen.hpp"
#include "report.hpp"
#include "scene.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

/// Setup repetitions in an end-to-end run (setup_s is their median).
constexpr std::size_t kSetupReps = 15;
/// staleness_ms_p90 needs at least this many epochs.
constexpr std::size_t kMinEpochs = 100;
/// Latency and rate metrics are medians over time windows of about this
/// length (at least five windows per run), long enough for each window's
/// p90 staleness to rest on tens of epochs.
constexpr double kWindowS = 4.0;

double window_s(double seconds) {
  return seconds / std::max(5.0, std::round(seconds / kWindowS));
}

struct Args {
  std::string workload;
  unsigned long long seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string git_sha = "unknown";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--git-sha") a.git_sha = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && a.seconds > 0.0 && (a.trace == 0 || a.trace == 1) &&
         (a.workload == "survey" || a.workload == "uploads" ||
          a.workload == "routes");
}

void print_run(const char* label, const RunResult& r) {
  std::printf("%s: %llu %s in %.2f s over %llu epochs, %zu staleness / %zu "
              "read samples, failed %llu of %llu; gates took %.2f s\n",
              label, static_cast<unsigned long long>(r.items), r.item.c_str(),
              r.wall_s, static_cast<unsigned long long>(r.epochs),
              r.staleness_ms.count(), r.read_ms.count(),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted), r.gates_s);
  std::printf("  setup ms:");
  for (const double x : r.setup_s) std::printf(" %.2f", x * 1000.0);
  std::printf("\n  %s per window:", r.item.c_str());
  for (const auto& w : r.done.windows) {
    std::printf(" %.0f", std::accumulate(w.begin(), w.end(), 0.0));
  }
  std::printf("\n");
  for (const auto& g : r.gate_notes) std::printf("  gate: %s\n", g.c_str());
  for (const auto& g : r.gate_failures) std::printf("  GATE FAILED: %s\n", g.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload survey|uploads|routes --seed N "
                 "--seconds S --trace 0|1 [--git-sha SHA]\n");
    return 2;
  }
  try {
    // Pool workers: the caller of parallel_for joins in, so a pool of
    // nproc - 1 (at most 3) keeps every thread on its own core.
    const std::size_t pool = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 2, 4) - 1;
    const auto t_gen = Clock::now();

    // Inputs first; the runs below see only these.
    SurveyScene survey;
    FleetScene fleet;
    std::function<RunResult(const RunConfig&)> run;
    std::size_t batches = 0;
    if (args.workload == "survey") {
      survey = make_survey_scene(args.seed, /*n_batches=*/4, /*n_od=*/512);
      batches = survey.batches.size();
      run = [&](const RunConfig& rc) { return run_survey(survey, rc); };
    } else if (args.workload == "uploads") {
      fleet = make_fleet_scene(rge::road::make_city_network(2019), args.seed,
                               /*vehicles=*/10000, /*batch_uploads=*/10000,
                               /*n_od=*/0);
      batches = fleet.batches.size();
      run = [&](const RunConfig& rc) { return run_uploads(fleet, rc); };
    } else {
      // ~800 km city, ~3k graph nodes; route clients + one writer.
      fleet = make_fleet_scene(rge::road::make_city_network(2026, 800.0),
                               args.seed, /*vehicles=*/2000,
                               /*batch_uploads=*/50, /*n_od=*/4096);
      batches = fleet.batches.size();
      run = [&](const RunConfig& rc) { return run_routes(fleet, rc); };
    }
    std::printf("e2ebench %s seed %llu: inputs generated in %.2f s "
                "(%zu batches; not timed)\n",
                args.workload.c_str(), args.seed,
                ms_between(t_gen, Clock::now()) / 1000.0, batches);

    RunMeta meta{args.workload, args.seed, args.seconds, args.trace == 1,
                 pool, 0, args.git_sha};
    std::vector<std::string> gate_failures;
    std::vector<std::string> notes;
    std::vector<MetricValue> metrics;
    std::vector<RunResult> results;

    if (args.trace == 0) {
      meta.setup_reps = kSetupReps;
      results.push_back(run(RunConfig{args.seconds, pool, false, kSetupReps,
                                      std::max(kMinEpochs, batches),
                                      window_s(args.seconds)}));
      print_run("e2e", results[0]);
      metrics = end_to_end_metrics(results[0]);
    } else {
      meta.setup_reps = 1;
      const double phase = args.seconds / 3.0;
      results.push_back(
          run(RunConfig{phase, pool, false, 1, batches, window_s(phase)}));
      print_run("untraced", results.back());
      results.push_back(
          run(RunConfig{phase, pool, true, 1, batches, window_s(phase)}));
      print_run("traced", results.back());
      results.push_back(
          run(RunConfig{phase, 1, true, 1, batches, window_s(phase)}));
      print_run("traced-1", results.back());
      std::string accounting;
      metrics = per_layer_metrics(results[0], results[1], results[2],
                                  gate_failures, accounting);
      std::printf("%s\n", accounting.c_str());
      notes.push_back(accounting);
    }

    unsigned long long attempted = 0;
    unsigned long long failed = 0;
    std::vector<const RunResult*> runs;
    for (const RunResult& r : results) {
      attempted += r.attempted;
      failed += r.failed;
      gate_failures.insert(gate_failures.end(), r.gate_failures.begin(),
                           r.gate_failures.end());
      runs.push_back(&r);
    }
    for (const auto& m : metrics) {
      std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    const bool correct = gate_failures.empty() && attempted > 0;
    std::printf("meta: %s\n", meta_json(meta, runs, notes).c_str());
    std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}

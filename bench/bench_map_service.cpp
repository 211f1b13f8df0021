// Map-service bench: the sharded city-scale serving layer under a
// 10,000-vehicle fleet (the deployment the paper's cloud section sketches).
//
// The roads of the whole 164.8 km network (Fig. 7(a)) are hashed onto
// shards; the fleet uploads partial-trip gradient tracks keyed by road
// odometry. Measured:
//   * ingest throughput (fixes/sec) of deterministic batch ingest on a
//     pool, vs the same uploads through a single-shard serial service;
//   * ingest time against pool size (1/2/3 threads) for batches of 50,
//     1,000 and 10,000 uploads: median, min and max of repeated runs;
//   * publish() latency percentiles (snapshot rebuild + pointer swap)
//     interleaved with ingest;
//   * snapshot() latency percentiles (the reader path — a shared_ptr
//     copy, O(1) regardless of map size);
//   * per-shard ingest counters via the obs layer.
//
// Correctness anchors: the sharded service's published map is checked
// bit-identical to the single-shard serial service, road by road, cell by
// cell, and every shard's obs sample counter must equal its functional
// count (read before the reference service, which shares the
// process-global `service.shard0.*` names, ingests). The bench exits
// nonzero if either fails. Numbers land in BENCH_map_service.json — the
// perf-trajectory artifact also emitted by tests/test_map_service_perf.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "math/stats.hpp"
#include "obs/obs.hpp"
#include "road/network.hpp"
#include "runtime/thread_pool.hpp"
#include "service/map_service.hpp"
#include "testing/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(const Clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Partial-trip upload: the road's true grade plus per-vehicle noise,
/// sampled every ~5 m over a random sub-span. Accuracy is not the point
/// here (the cloud-fusion bench covers it); shape and volume are.
rge::service::TrackUpload synth_upload(const rge::road::RoadNetwork& net,
                                       std::uint32_t vehicle,
                                       std::mt19937& rng) {
  using rge::service::RoadId;
  std::uniform_int_distribution<std::size_t> pick(0, net.size() - 1);
  const auto road_id = static_cast<RoadId>(pick(rng));
  const rge::road::Road& road = net.roads()[road_id].road;
  const double len = road.length_m();
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double s0 = u(rng) * std::max(0.0, len - 250.0);
  const double s1 = std::min(len, s0 + 250.0 + u(rng) * (len - s0 - 250.0));
  const auto n = std::max<std::size_t>(16, static_cast<std::size_t>((s1 - s0) / 5.0));

  rge::service::TrackUpload up;
  up.road = road_id;
  up.track.source = "veh-" + std::to_string(vehicle);
  std::normal_distribution<double> noise(0.0, 0.004);
  std::uniform_real_distribution<double> var(1e-5, 4e-5);
  up.track.t.resize(n);
  up.track.s.resize(n);
  up.track.grade.resize(n);
  up.track.grade_var.resize(n);
  up.track.speed.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(n - 1);
    const double s = s0 + f * (s1 - s0);
    up.track.s[i] = s;
    up.track.t[i] = s / 12.5;
    up.track.grade[i] = road.grade_at(s) + noise(rng);
    up.track.grade_var[i] = var(rng);
    up.track.speed[i] = 12.5;
  }
  return up;
}

bool views_identical(const rge::service::RoadView& a,
                     const rge::service::RoadView& b) {
  return a.cells == b.cells && a.coverage == b.coverage &&
         a.track.grade == b.track.grade &&
         a.track.grade_var == b.track.grade_var &&
         a.track.speed == b.track.speed && a.track.t == b.track.t &&
         a.track.s == b.track.s;
}

}  // namespace

int main() {
  using namespace rge;
  bench::print_header(
      "Map service: 10k-vehicle fleet on the sharded city network",
      "serving layer for the paper's crowd-sourced gradient map");

  obs::set_enabled(true);

  const road::RoadNetwork network = road::make_city_network(2019);
  service::MapServiceConfig cfg;
  cfg.n_shards = 8;
  cfg.fusion.distance_step_m = 5.0;
  service::MapService svc(network, cfg);
  std::printf("network: %zu roads, %.1f km on %zu shards\n", network.size(),
              network.total_length_m() / 1000.0, svc.n_shards());

  // ---- fleet ----------------------------------------------------------
  constexpr std::size_t kFleet = 10000;
  constexpr std::size_t kBatch = 200;  // uploads per ingest batch
  std::vector<service::TrackUpload> fleet;
  fleet.reserve(kFleet);
  std::mt19937 rng(42);
  std::size_t total_fixes = 0;
  for (std::size_t v = 0; v < kFleet; ++v) {
    fleet.push_back(synth_upload(network, static_cast<std::uint32_t>(v), rng));
    total_fixes += fleet.back().track.s.size();
  }
  std::printf("fleet: %zu uploads, %zu fixes (%.0f per upload)\n", kFleet,
              total_fixes, static_cast<double>(total_fixes) / kFleet);

  // ---- sharded ingest + interleaved publishes -------------------------
  runtime::ThreadPool pool(4);
  std::vector<double> publish_ms;
  double ingest_ms_total = 0.0;
  for (std::size_t b = 0; b < kFleet / kBatch; ++b) {
    const std::vector<service::TrackUpload> batch(
        fleet.begin() + static_cast<std::ptrdiff_t>(b * kBatch),
        fleet.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBatch));
    const auto t_in = Clock::now();
    svc.ingest(batch, &pool);
    ingest_ms_total += ms_since(t_in);
    const auto t_pub = Clock::now();
    svc.publish(&pool);
    publish_ms.push_back(ms_since(t_pub));
  }
  const double fixes_per_sec =
      static_cast<double>(total_fixes) / (ingest_ms_total / 1000.0);

  // ---- reader path: snapshot() is a pinned pointer copy ---------------
  std::vector<double> snapshot_us;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    const auto snap = svc.snapshot();
    snapshot_us.push_back(1000.0 * ms_since(t0));
    if (snap->epoch == 0) return 1;  // unreachable; keeps snap live
  }
  std::sort(snapshot_us.begin(), snapshot_us.end());

  // Obs counters are process-global: read them before the reference
  // service below bumps the same service.shard0.* names.
  const auto obs_snap = obs::Registry::global().snapshot();
  const auto final_snap = svc.snapshot();
  std::size_t covered = 0;
  for (const auto& view : final_snap->roads) covered += view.size();

  std::printf(
      "\ningest: %.0f ms total -> %.2fM fixes/sec (batches of %zu on %zu "
      "worker threads)\n",
      ingest_ms_total, fixes_per_sec / 1e6, kBatch, pool.size());
  std::printf(
      "publish: p50 %.2f ms, p90 %.2f ms, p99 %.2f ms (%zu publishes, "
      "epoch %llu, %zu covered cells)\n",
      math::percentile(publish_ms, 0.5), math::percentile(publish_ms, 0.9),
      math::percentile(publish_ms, 0.99), publish_ms.size(),
      static_cast<unsigned long long>(final_snap->epoch), covered);
  std::printf("snapshot: p50 %.2f us, p99 %.2f us\n",
              math::percentile(snapshot_us, 0.5),
              math::percentile(snapshot_us, 0.99));

  // ---- correctness anchor: single-shard serial reference --------------
  service::MapServiceConfig ref_cfg = cfg;
  ref_cfg.n_shards = 1;
  service::MapService ref(network, ref_cfg);
  const auto t_ref = Clock::now();
  ref.ingest(fleet);  // one batch, no pool: pure serial fusion
  const double ref_ingest_ms = ms_since(t_ref);
  ref.publish();
  const auto ref_snap = ref.snapshot();
  bool identical = ref_snap->roads.size() == final_snap->roads.size();
  for (std::size_t r = 0; identical && r < ref_snap->roads.size(); ++r) {
    identical = views_identical(ref_snap->roads[r], final_snap->roads[r]);
  }
  std::printf(
      "\nreference single-shard serial ingest: %.0f ms (%.2fM fixes/sec); "
      "published maps bit-identical: %s\n",
      ref_ingest_ms, total_fixes / ref_ingest_ms / 1000.0,
      identical ? "yes" : "NO");

  // ---- per-shard counters (local stats + obs mirror) ------------------
  auto obs_counter = [&](const std::string& name) {
    const auto it = obs_snap.counters.find(name);
    return it == obs_snap.counters.end() ? std::int64_t{0} : it->second;
  };
  std::printf("\n%-6s %8s %12s %14s %14s\n", "shard", "roads", "tracks",
              "samples", "covered");
  testing::Json::Array shard_rows;
  shard_rows.reserve(svc.n_shards());
  bool counters_conserved = true;
  for (const auto& st : svc.shard_stats()) {
    const std::string prefix = "service.shard" + std::to_string(st.shard);
    std::printf("%-6zu %8zu %12llu %14llu %14llu\n", st.shard, st.n_roads,
                static_cast<unsigned long long>(st.tracks_ingested),
                static_cast<unsigned long long>(st.samples_ingested),
                static_cast<unsigned long long>(st.covered_cells));
    testing::Json::Object row;
    row["shard"] = testing::Json(st.shard);
    row["roads"] = testing::Json(st.n_roads);
    row["tracks_ingested"] = testing::Json(std::size_t{st.tracks_ingested});
    row["samples_ingested"] = testing::Json(std::size_t{st.samples_ingested});
    row["covered_cells"] = testing::Json(std::size_t{st.covered_cells});
    row["obs_tracks"] =
        testing::Json(static_cast<double>(obs_counter(prefix + ".tracks")));
    const std::int64_t obs_samples = obs_counter(prefix + ".samples");
    row["obs_samples"] = testing::Json(static_cast<double>(obs_samples));
    shard_rows.emplace_back(std::move(row));
    if (obs_samples != static_cast<std::int64_t>(st.samples_ingested)) {
      counters_conserved = false;
      std::printf("shard %zu: obs samples %lld != ingested %llu\n", st.shard,
                  static_cast<long long>(obs_samples),
                  static_cast<unsigned long long>(st.samples_ingested));
    }
  }

  // ---- ingest time against pool size and batch size -------------------
  // A fresh service per repetition, so every run ingests into empty
  // accumulators. Runs after the obs snapshot above: these services bump
  // the same process-global shard counters.
  constexpr std::size_t kRepeats = 7;
  std::printf("\ningest ms vs pool size (%zu shards; median [min, max] of "
              "%zu runs)\n%-8s",
              cfg.n_shards, kRepeats, "batch");
  const std::size_t pool_sizes[] = {1, 2, 3};
  for (const std::size_t p : pool_sizes) {
    std::printf(" %26s", ("pool " + std::to_string(p)).c_str());
  }
  std::printf("\n");
  testing::Json::Array scaling_rows;
  for (const std::size_t batch_size : {50u, 1000u, 10000u}) {
    const std::vector<service::TrackUpload> batch(
        fleet.begin(),
        fleet.begin() + static_cast<std::ptrdiff_t>(batch_size));
    std::printf("%-8zu", batch_size);
    for (const std::size_t p : pool_sizes) {
      runtime::ThreadPool scaling_pool(p);
      std::vector<double> ms;
      for (std::size_t rep = 0; rep < kRepeats; ++rep) {
        service::MapService fresh(network, cfg);
        const auto t0 = Clock::now();
        fresh.ingest(batch, &scaling_pool);
        ms.push_back(ms_since(t0));
      }
      const auto [lo, hi] = std::minmax_element(ms.begin(), ms.end());
      const double median = math::percentile(ms, 0.5);
      std::printf(" %10.3f [%6.3f, %6.3f]", median, *lo, *hi);
      scaling_rows.emplace_back(testing::Json::Object{
          {"batch_uploads", batch_size},
          {"pool_threads", p},
          {"median_ms", median},
          {"min_ms", *lo},
          {"max_ms", *hi},
          {"repeats", kRepeats},
      });
    }
    std::printf("\n");
  }

  // ---- perf-trajectory artifact ---------------------------------------
  testing::Json::Object doc;
  doc["workload"] = testing::Json::Object{
      {"n_vehicles", kFleet},
      {"total_fixes", total_fixes},
      {"n_roads", network.size()},
      {"network_km", network.total_length_m() / 1000.0},
      {"n_shards", svc.n_shards()},
      {"grid_step_m", cfg.fusion.distance_step_m},
      {"batch_size", kBatch},
      {"pool_threads", pool.size()},
  };
  doc["ingest"] = testing::Json::Object{
      {"sharded_ms", ingest_ms_total},
      {"sharded_fixes_per_sec", fixes_per_sec},
      {"single_shard_serial_ms", ref_ingest_ms},
      {"by_pool_size", scaling_rows},
  };
  doc["publish_latency_ms"] = testing::Json::Object{
      {"p50", math::percentile(publish_ms, 0.5)},
      {"p90", math::percentile(publish_ms, 0.9)},
      {"p99", math::percentile(publish_ms, 0.99)},
      {"publishes", publish_ms.size()},
  };
  doc["snapshot_latency_us"] = testing::Json::Object{
      {"p50", math::percentile(snapshot_us, 0.5)},
      {"p99", math::percentile(snapshot_us, 0.99)},
  };
  doc["correctness"] = testing::Json::Object{
      {"covered_cells", covered},
      {"maps_bit_identical", identical},
      {"obs_counters_conserved", counters_conserved},
  };
  doc["shards"] = shard_rows;
  testing::write_json_file(testing::Json(doc), "BENCH_map_service.json");
  std::printf("\nwrote BENCH_map_service.json\n");

  std::printf(
      "\nReading: every road has one accumulator on one shard and sees "
      "its uploads in upload order, so the sharded map is the serial map "
      "bit for bit — sharding buys ingest parallelism and O(1) reader "
      "snapshots without giving up reproducibility.\n");
  return identical && counters_conserved ? 0 : 1;
}

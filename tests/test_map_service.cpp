// Integration tests for the sharded map service.
//
// The load-bearing contract is determinism: every road has one
// accumulator on one owner shard, each shard applies its uploads in upload
// order, and the published multi-shard map is therefore bit-identical to
// single-shard serial fusion across 1/2/8-thread pools and 1/4/16 shards.
// On top of
// that: epoch/double-buffered snapshots (readers keep a pinned immutable
// buffer while ingest continues, and consecutive snapshots share the view
// of every road a publish did not rebuild), exact rebalancing, per-shard
// matcher caches, and the concurrency of ingest_one/publish/snapshot (exercised
// under TSan via the tsan-runtime preset).
#include "service/map_service.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/track_fusion.hpp"
#include "math/angles.hpp"
#include "obs/obs.hpp"
#include "road/network.hpp"
#include "road/road.hpp"
#include "runtime/thread_pool.hpp"

namespace rge::service {
namespace {

/// Deterministic synthetic upload covering s in [s0, s1] of one road.
TrackUpload synth_upload(RoadId road_id, const road::Road& road,
                         std::uint32_t id, double s0, double s1,
                         std::size_t n) {
  TrackUpload up;
  up.road = road_id;
  up.track.source = "synth-" + std::to_string(id);
  std::mt19937 rng(2024u + id);
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
    up.track.t[i] = s / 13.0;
    up.track.grade[i] = road.grade_at(s) + 0.002 * std::sin(0.05 * s + id);
    up.track.grade_var[i] = var(rng);
    up.track.speed[i] = 13.0;
  }
  up.track.validate();
  return up;
}

/// Random partial-trip fleet over every road of the network.
std::vector<TrackUpload> synth_fleet(const road::RoadNetwork& net,
                                     std::size_t n_uploads,
                                     std::uint32_t seed) {
  std::vector<TrackUpload> fleet;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, net.size() - 1);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (std::size_t v = 0; v < n_uploads; ++v) {
    const auto r = static_cast<RoadId>(pick(rng));
    const road::Road& road = net.roads()[r].road;
    const double len = road.length_m();
    const double s0 = u(rng) * std::max(0.0, len - 150.0);
    const double s1 = std::min(len, s0 + 150.0 + u(rng) * (len - s0 - 150.0));
    const auto n = std::max<std::size_t>(
        32, static_cast<std::size_t>((s1 - s0) / 4.0));
    fleet.push_back(synth_upload(r, road, static_cast<std::uint32_t>(v), s0,
                                 s1, n));
  }
  return fleet;
}

void expect_views_identical(const RoadView& a, const RoadView& b) {
  ASSERT_EQ(a.road, b.road);
  ASSERT_EQ(a.cells, b.cells) << "road " << a.road;
  ASSERT_EQ(a.coverage, b.coverage) << "road " << a.road;
  ASSERT_EQ(a.track.grade, b.track.grade) << "road " << a.road;
  ASSERT_EQ(a.track.grade_var, b.track.grade_var) << "road " << a.road;
  ASSERT_EQ(a.track.speed, b.track.speed) << "road " << a.road;
  ASSERT_EQ(a.track.t, b.track.t) << "road " << a.road;
  ASSERT_EQ(a.track.s, b.track.s) << "road " << a.road;
}

void expect_snapshots_identical(const ServiceSnapshot& a,
                                const ServiceSnapshot& b) {
  ASSERT_EQ(a.roads.size(), b.roads.size());
  for (std::size_t r = 0; r < a.roads.size(); ++r) {
    expect_views_identical(a.roads[r], b.roads[r]);
  }
}

/// Every road of the current snapshot equals the audit path's view.
void expect_views_match_merged(const MapService& svc) {
  const auto snap = svc.snapshot();
  ASSERT_EQ(snap->roads.size(), svc.n_roads());
  for (RoadId r = 0; r < svc.n_roads(); ++r) {
    expect_views_identical(snap->roads[r], svc.merged_road_view(r));
  }
}

road::RoadNetwork small_city() {
  return road::make_city_network(77, /*total_length_km=*/12.0);
}

MapServiceConfig base_config(std::size_t n_shards) {
  MapServiceConfig cfg;
  cfg.n_shards = n_shards;
  cfg.fusion.distance_step_m = 5.0;
  return cfg;
}

// ---- ownership ----------------------------------------------------------

TEST(MapService, EveryRoadHasOneOwnerShard) {
  const road::RoadNetwork net = small_city();
  for (const std::size_t n_shards : {1u, 4u, 16u}) {
    SCOPED_TRACE("shards " + std::to_string(n_shards));
    MapService svc(net, base_config(n_shards));
    for (RoadId r = 0; r < svc.n_roads(); ++r) {
      const std::size_t s = svc.shard_of(r);
      EXPECT_LT(s, svc.n_shards());
      EXPECT_EQ(s, svc.shard_of(r));
    }
    std::size_t owned = 0;
    for (const auto& st : svc.shard_stats()) owned += st.n_roads;
    EXPECT_EQ(owned, svc.n_roads());

    // After a rebalance the owners are those of a fresh service built
    // with the new shard count.
    for (const std::size_t k : {1u, 4u, 16u}) {
      svc.rebalance(k);
      const MapService fresh(net, base_config(k));
      for (RoadId r = 0; r < svc.n_roads(); ++r) {
        EXPECT_EQ(svc.shard_of(r), fresh.shard_of(r)) << "road " << r;
      }
      const auto got = svc.shard_stats();
      const auto want = fresh.shard_stats();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t s = 0; s < got.size(); ++s) {
        EXPECT_EQ(got[s].n_roads, want[s].n_roads) << "shard " << s;
      }
    }
  }
}

// ---- determinism matrix -------------------------------------------------

TEST(MapService, SampleCountConservesGapAndOffGridSamples) {
  // Samples beyond both grid ends, exactly on the ends, on cells and in
  // the gaps between cells must each be booked exactly once; an upload
  // that misses the grid books none.
  const road::RoadNetwork net = small_city();
  const MapService probe(net, base_config(1));
  const RoadId road = 0;
  const core::FusionGrid& grid = probe.grid(road);
  ASSERT_GE(grid.n, 8u);

  std::vector<double> keys = {grid.lo - 40.0, grid.lo - 1.0, grid.lo};
  for (std::size_t i = 1; i + 1 < grid.n; i += grid.n / 5) {
    keys.push_back(grid.at(i));                           // on a cell
    keys.push_back(0.5 * (grid.at(i) + grid.at(i + 1)));  // between cells
  }
  keys.push_back(grid.hi);
  keys.push_back(grid.hi + 2.0);
  keys.push_back(grid.hi + 75.0);

  TrackUpload on_grid;
  on_grid.road = road;
  on_grid.track.source = "gaps";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    on_grid.track.s.push_back(keys[i]);
    on_grid.track.t.push_back(static_cast<double>(i));
    on_grid.track.grade.push_back(0.01);
    on_grid.track.grade_var.push_back(1e-4);
    on_grid.track.speed.push_back(10.0);
  }
  on_grid.track.validate();
  TrackUpload off_grid = on_grid;
  for (double& k : off_grid.track.s) k += grid.hi + 1000.0;
  const std::vector<TrackUpload> uploads = {on_grid, off_grid};

  for (const std::size_t shards : {1u, 4u, 16u}) {
    for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + ", threads " +
                   std::to_string(threads));
      MapService svc(net, base_config(shards));
      if (threads == 0) {
        for (const auto& up : uploads) svc.ingest_one(up);
      } else {
        runtime::ThreadPool pool(threads);
        svc.ingest(uploads, &pool);
      }
      EXPECT_EQ(svc.total_samples_ingested(), keys.size());
      std::uint64_t per_shard = 0;
      for (const auto& st : svc.shard_stats()) {
        per_shard += st.samples_ingested;
      }
      EXPECT_EQ(per_shard, keys.size());
      // The off-grid upload added nothing, so the road holds one track.
      EXPECT_EQ(svc.merged_accumulator(road).tracks_added(), 1u);
    }
  }
}

TEST(MapService, BitIdenticalAcrossPoolSizesAndShardCounts) {
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 120, 9);

  // Reference: one shard, one thread, one batch — plain serial fusion.
  MapService ref(net, base_config(1));
  ref.ingest(fleet);
  ref.publish();
  const auto want = ref.snapshot();
  ASSERT_GT(want->epoch, 0u);

  for (const std::size_t n_shards : {1u, 4u, 16u}) {
    std::vector<ShardStats> first_stats;
    for (const std::size_t n_threads : {1u, 2u, 8u}) {
      runtime::ThreadPool pool(n_threads);
      MapService svc(net, base_config(n_shards));
      // Batched ingest through the pool, publishing mid-stream too.
      const std::size_t batch = 37;
      for (std::size_t i = 0; i < fleet.size(); i += batch) {
        const std::vector<TrackUpload> chunk(
            fleet.begin() + static_cast<std::ptrdiff_t>(i),
            fleet.begin() + static_cast<std::ptrdiff_t>(
                                std::min(fleet.size(), i + batch)));
        svc.ingest(chunk, &pool);
      }
      svc.publish(&pool);
      expect_snapshots_identical(*svc.snapshot(), *want);

      // Per-shard sums are a function of road ownership only — identical
      // for every pool size at a fixed shard count.
      const auto stats = svc.shard_stats();
      ASSERT_EQ(stats.size(), n_shards);
      if (n_threads == 1u) {
        first_stats = stats;
      } else {
        for (std::size_t s = 0; s < n_shards; ++s) {
          EXPECT_EQ(stats[s].tracks_ingested,
                    first_stats[s].tracks_ingested)
              << "shard " << s;
          EXPECT_EQ(stats[s].samples_ingested,
                    first_stats[s].samples_ingested)
              << "shard " << s;
          EXPECT_EQ(stats[s].covered_cells, first_stats[s].covered_cells)
              << "shard " << s;
        }
      }
    }
  }
}

TEST(MapService, IngestOneMatchesBatchIngestWhenSerial) {
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 40, 31);

  MapService batch(net, base_config(4));
  batch.ingest(fleet);
  batch.publish();

  MapService streaming(net, base_config(4));
  for (const auto& up : fleet) streaming.ingest_one(up);
  streaming.publish();

  expect_snapshots_identical(*streaming.snapshot(), *batch.snapshot());
  EXPECT_EQ(streaming.total_samples_ingested(),
            batch.total_samples_ingested());
}

// ---- serving ------------------------------------------------------------

TEST(MapService, EpochSnapshotsAreImmutableAndPinned) {
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 30, 3);
  MapService svc(net, base_config(4));

  const auto empty = svc.snapshot();
  EXPECT_EQ(empty->epoch, 0u);
  ASSERT_EQ(empty->roads.size(), net.size());
  for (const auto& view : empty->roads) EXPECT_EQ(view.size(), 0u);

  svc.ingest({fleet.begin(), fleet.begin() + 15});
  EXPECT_EQ(svc.publish(), 1u);
  const auto first = svc.snapshot();
  EXPECT_EQ(first->epoch, 1u);
  std::size_t covered_first = 0;
  for (const auto& view : first->roads) covered_first += view.size();
  EXPECT_GT(covered_first, 0u);

  // More ingest + publish must not disturb the pinned old buffer.
  svc.ingest({fleet.begin() + 15, fleet.end()});
  EXPECT_EQ(svc.publish(), 2u);
  EXPECT_EQ(svc.epoch(), 2u);
  std::size_t covered_again = 0;
  for (const auto& view : first->roads) covered_again += view.size();
  EXPECT_EQ(covered_again, covered_first);
  EXPECT_EQ(first->epoch, 1u);
  // The old snapshot still reads the 15-upload map; epoch 0's is empty.
  EXPECT_EQ(empty->roads[0].size(), 0u);
}

TEST(MapService, RebalancePreservesThePublishedMapBitExact) {
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 60, 17);
  MapService svc(net, base_config(4));
  svc.ingest(fleet);
  svc.publish();
  const auto before = svc.snapshot();

  for (const std::size_t new_shards : {16u, 1u, 4u}) {
    svc.rebalance(new_shards);
    EXPECT_EQ(svc.n_shards(), new_shards);
    svc.publish();
    expect_snapshots_identical(*svc.snapshot(), *before);
  }
  // And ingest still works after rebalancing.
  const auto more = synth_fleet(net, 5, 23);
  svc.ingest(more);
  svc.publish();
}

// ---- incremental publish: rebuild only the roads ingested into ---------

TEST(MapService, PublishWithoutIngestRebuildsNothing) {
  const road::RoadNetwork net = small_city();
  MapService svc(net, base_config(4));
  EXPECT_EQ(svc.last_publish_stats().roads_rebuilt, 0u);
  svc.ingest(synth_fleet(net, 40, 5));
  EXPECT_EQ(svc.publish(), 1u);
  // The first publish after construction rebuilds every road.
  EXPECT_EQ(svc.last_publish_stats().roads_rebuilt, net.size());
  std::size_t covered = 0;
  for (const auto& view : svc.snapshot()->roads) covered += view.size();
  EXPECT_EQ(svc.last_publish_stats().cells_rebuilt, covered);
  const auto first = svc.snapshot();

  EXPECT_EQ(svc.publish(), 2u);
  EXPECT_EQ(svc.last_publish_stats().roads_rebuilt, 0u);
  EXPECT_EQ(svc.last_publish_stats().cells_rebuilt, 0u);
  const auto second = svc.snapshot();
  EXPECT_EQ(second->epoch, 2u);
  expect_snapshots_identical(*second, *first);
  expect_views_match_merged(svc);
}

TEST(MapService, IngestOneRebuildsExactlyItsRoad) {
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 30, 11);
  MapService svc(net, base_config(4));
  svc.ingest(fleet);
  svc.publish();
  const auto before = svc.snapshot();

  const RoadId r = fleet.front().road;
  svc.ingest_one(fleet.front());
  svc.publish();
  const PublishStats stats = svc.last_publish_stats();
  EXPECT_EQ(stats.roads_rebuilt, 1u);
  EXPECT_EQ(stats.cells_rebuilt, svc.merged_road_view(r).size());
  const auto after = svc.snapshot();
  for (RoadId q = 0; q < svc.n_roads(); ++q) {
    if (q == r) {
      // The re-ingested upload doubled its cells' coverage.
      EXPECT_NE(after->roads[q].coverage, before->roads[q].coverage);
    } else {
      expect_views_identical(after->roads[q], before->roads[q]);
    }
  }
  expect_views_match_merged(svc);
}

TEST(MapService, UnchangedRoadsShareTheirViewAcrossEpochs) {
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 30, 11);
  MapService svc(net, base_config(4));
  svc.ingest(fleet);
  svc.publish();
  const auto a = svc.snapshot();
  const RoadId r = fleet.front().road;
  const RoadView pinned = svc.merged_road_view(r);

  svc.ingest_one(fleet.front());
  svc.publish();
  const auto b = svc.snapshot();
  ASSERT_EQ(a->roads.size(), b->roads.size());
  for (RoadId q = 0; q < svc.n_roads(); ++q) {
    if (q == r) {
      EXPECT_NE(&a->roads[q], &b->roads[q]);
    } else {
      EXPECT_EQ(&a->roads[q], &b->roads[q]) << "road " << q;
    }
  }
  // The pinned old epoch still serves the map as it was when published.
  expect_views_identical(a->roads[r], pinned);
  expect_views_match_merged(svc);
}

TEST(MapService, RebalanceForcesOneFullRebuild) {
  const road::RoadNetwork net = small_city();
  MapService svc(net, base_config(4));
  svc.ingest(synth_fleet(net, 50, 13));
  svc.publish();
  const auto before = svc.snapshot();
  for (const std::size_t new_shards : {16u, 1u, 4u}) {
    svc.rebalance(new_shards);
    svc.publish();
    EXPECT_EQ(svc.last_publish_stats().roads_rebuilt, net.size());
    expect_snapshots_identical(*svc.snapshot(), *before);
    expect_views_match_merged(svc);
    svc.publish();
    EXPECT_EQ(svc.last_publish_stats().roads_rebuilt, 0u);
  }
}

TEST(MapService, SparseBatchesMatchMergedViewsEveryEpoch) {
  // Small batches touching 1-3 roads each leave most roads clean, so
  // nearly every view of every epoch comes from the reuse path; each must
  // still equal the audit path's view bit for bit, for every layout.
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 60, 19);
  std::vector<std::vector<TrackUpload>> batches;
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> n_roads(1, 3);
  std::uniform_int_distribution<RoadId> pick(
      0, static_cast<RoadId>(net.size() - 1));
  for (std::size_t b = 0; b < 12; ++b) {
    std::vector<RoadId> roads(n_roads(rng));
    for (RoadId& r : roads) r = pick(rng);
    std::vector<TrackUpload> batch;
    for (const auto& up : fleet) {
      if (std::find(roads.begin(), roads.end(), up.road) != roads.end()) {
        batch.push_back(up);
      }
    }
    batches.push_back(std::move(batch));
  }

  for (const std::size_t n_shards : {1u, 4u, 16u}) {
    for (const std::size_t n_threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("shards " + std::to_string(n_shards) + " threads " +
                   std::to_string(n_threads));
      runtime::ThreadPool pool(n_threads);
      MapService svc(net, base_config(n_shards));
      svc.publish(&pool);
      for (const auto& batch : batches) {
        svc.ingest(batch, &pool);
        svc.publish(&pool);
        std::vector<RoadId> touched;
        for (const auto& up : batch) touched.push_back(up.road);
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
        EXPECT_EQ(svc.last_publish_stats().roads_rebuilt, touched.size());
        expect_views_match_merged(svc);
      }
    }
  }
}

TEST(MapServiceObs, OnePublishRecordsOneSpanPerPhase) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const road::RoadNetwork net = small_city();
  MapService svc(net, base_config(4));
  svc.ingest(synth_fleet(net, 10, 29));
  obs::clear_trace();
  obs::set_tracing(true);
  svc.publish();
  obs::set_tracing(false);
  const auto totals = obs::span_totals();
  obs::clear_trace();
  for (const char* name : {"service.publish", "service.publish.finalize"}) {
    ASSERT_EQ(totals.count(name), 1u) << name;
    EXPECT_EQ(totals.at(name).count, 1) << name;
  }
}

#if RGE_OBS_ENABLED
TEST(MapServiceObs, ShardCountersCountOnGridUploads) {
  // One upload is one track on its owner shard; an upload that misses its
  // road's grid is counted nowhere. The per-shard obs counters move by
  // exactly the functional stats (deltas: the registry is process-global
  // and shard names repeat across instances).
  const road::RoadNetwork net = small_city();
  std::vector<TrackUpload> batch = synth_fleet(net, 40, 37);
  const std::size_t on_grid = batch.size();
  for (std::size_t i = 0; i < 6; ++i) {
    TrackUpload off = batch[i * 5];
    for (double& k : off.track.s) k += 1e6;
    batch.push_back(std::move(off));
  }
  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::int64_t{0} : it->second;
  };

  obs::set_enabled(true);
  for (const std::size_t n_shards : {1u, 4u, 16u}) {
    SCOPED_TRACE("shards " + std::to_string(n_shards));
    MapService svc(net, base_config(n_shards));
    const auto before = obs::Registry::global().snapshot();
    runtime::ThreadPool pool(2);
    svc.ingest(batch, &pool);
    svc.ingest_one(batch.back());  // off-grid: counted nowhere
    const auto after = obs::Registry::global().snapshot();

    std::uint64_t tracks = 0;
    for (const auto& st : svc.shard_stats()) {
      tracks += st.tracks_ingested;
      const std::string prefix = "service.shard" + std::to_string(st.shard);
      EXPECT_EQ(counter(after, prefix + ".tracks") -
                    counter(before, prefix + ".tracks"),
                static_cast<std::int64_t>(st.tracks_ingested))
          << prefix;
      EXPECT_EQ(counter(after, prefix + ".samples") -
                    counter(before, prefix + ".samples"),
                static_cast<std::int64_t>(st.samples_ingested))
          << prefix;
    }
    EXPECT_EQ(tracks, on_grid);
  }
  obs::set_enabled(false);
}
#endif

TEST(MapService, MatcherIsServedFromTheHomeShardCache) {
  const road::RoadNetwork net = small_city();
  MapService svc(net, base_config(4));
  const auto m0 = svc.matcher(0);
  ASSERT_NE(m0, nullptr);
  EXPECT_EQ(svc.matcher(0).get(), m0.get());  // cached, same instance
  const auto m1 = svc.matcher(1);
  EXPECT_NE(m1.get(), m0.get());
  // The matcher really is the road's geometry.
  const auto fix = m0->match_point(svc.road(0).geo_at(100.0));
  EXPECT_TRUE(fix.valid);
  EXPECT_NEAR(fix.s_m, 100.0, 1.0);
}

TEST(MapService, RejectsBadInputs) {
  const road::RoadNetwork net = small_city();
  EXPECT_THROW(MapService(road::RoadNetwork{}, base_config(4)),
               std::invalid_argument);
  EXPECT_THROW(MapService(net, base_config(0)), std::invalid_argument);
  MapServiceConfig bad_step = base_config(2);
  bad_step.fusion.distance_step_m = 0.0;
  EXPECT_THROW(MapService(net, bad_step), std::invalid_argument);

  MapService svc(net, base_config(2));
  TrackUpload up = synth_fleet(net, 1, 1)[0];
  up.road = static_cast<RoadId>(net.size());
  EXPECT_THROW(svc.ingest({up}), std::out_of_range);
  EXPECT_THROW(svc.ingest_one(up), std::out_of_range);
  EXPECT_THROW(svc.rebalance(0), std::invalid_argument);
  EXPECT_THROW(svc.shard_of(static_cast<RoadId>(svc.n_roads())),
               std::out_of_range);
  EXPECT_THROW(svc.matcher(static_cast<RoadId>(net.size())),
               std::out_of_range);
}

// ---- concurrency (exercised under TSan via the tsan-runtime preset) -----

TEST(MapService, ConcurrentIngestPublishSnapshotIsSafe) {
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 96, 41);
  MapService svc(net, base_config(4));

  constexpr std::size_t kWriters = 3;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&svc, &fleet, w] {
      for (std::size_t i = w; i < fleet.size(); i += kWriters) {
        svc.ingest_one(fleet[i]);
      }
    });
  }
  std::thread publisher([&svc, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      svc.publish();
    }
  });
  std::vector<std::thread> readers;
  for (int rdr = 0; rdr < 2; ++rdr) {
    readers.emplace_back([&svc, &stop, &reads] {
      std::uint64_t local = 0;
      // do-while: each reader takes at least one snapshot even if the
      // writers finish before this thread is first scheduled.
      do {
        const auto snap = svc.snapshot();
        for (const auto& view : snap->roads) local += view.size();
        ++local;
      } while (!stop.load(std::memory_order_relaxed));
      reads.fetch_add(local, std::memory_order_relaxed);
    });
  }

  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  for (auto& th : readers) th.join();
  EXPECT_GT(reads.load(), 0u);

  // Concurrent streaming races for per-cell order (so sums are not
  // bit-comparable to serial), but conservation laws hold exactly:
  // every upload's samples landed, and the final published map covers
  // the same cells with the same per-cell coverage as a serial run.
  std::uint64_t expected_samples = 0;
  MapService serial(net, base_config(4));
  for (const auto& up : fleet) {
    expected_samples += up.track.s.size();
    serial.ingest_one(up);
  }
  // Every upload touches its road's grid, so every sample is counted.
  EXPECT_EQ(svc.total_samples_ingested(), expected_samples);
  EXPECT_EQ(serial.total_samples_ingested(), expected_samples);

  svc.publish();
  serial.publish();
  // Writers are quiesced, so the final publish must have picked up every
  // road a concurrent upload marked: a lost mark leaves a stale view.
  expect_views_match_merged(svc);
  const auto a = svc.snapshot();
  const auto b = serial.snapshot();
  ASSERT_EQ(a->roads.size(), b->roads.size());
  for (std::size_t r = 0; r < a->roads.size(); ++r) {
    EXPECT_EQ(a->roads[r].cells, b->roads[r].cells) << r;
    EXPECT_EQ(a->roads[r].coverage, b->roads[r].coverage) << r;
  }
}

/// Order-insensitive-enough content checksum for immutability checks: FNV
/// over the exact bit patterns of every view's cells, coverage, and grade.
std::uint64_t snapshot_checksum(const ServiceSnapshot& snap) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& view : snap.roads) {
    mix(view.cells.size());
    for (const auto c : view.cells) mix(c);
    for (const auto c : view.coverage) mix(c);
    for (const double g : view.track.grade) {
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(g));
      std::memcpy(&bits, &g, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

TEST(MapService, RebalanceBetweenConcurrentIngestRoundsKeepsReadersSafe) {
  // Phased hostile schedule: rounds of concurrent ingest_one + publish,
  // then writer quiescence, then rebalance to a new shard count — while
  // reader threads run WITHOUT interruption across every phase. Pinned
  // epoch snapshots must stay bit-frozen through rebalance (checksummed
  // every iteration) and the served epoch must never regress. Exercised
  // under TSan via the tsan-runtime preset (name matches MapService\.).
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 90, 53);
  MapService svc(net, base_config(4));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> epoch_regressions{0};
  std::atomic<std::uint64_t> pin_violations{0};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int rdr = 0; rdr < 2; ++rdr) {
    readers.emplace_back([&] {
      std::shared_ptr<const ServiceSnapshot> pinned;
      std::uint64_t pinned_sum = 0;
      std::uint64_t last_epoch = 0;
      do {
        const auto snap = svc.snapshot();
        if (snap->epoch < last_epoch) {
          epoch_regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_epoch = snap->epoch;
        // Re-pin occasionally so the pinned buffer crosses rebalances.
        if (!pinned || (snap->epoch > pinned->epoch + 2)) {
          pinned = snap;
          pinned_sum = snapshot_checksum(*pinned);
        } else if (snapshot_checksum(*pinned) != pinned_sum) {
          pin_violations.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  const std::size_t shard_plan[] = {9, 1, 4};
  const std::size_t slice = fleet.size() / std::size(shard_plan);
  for (std::size_t round = 0; round < std::size(shard_plan); ++round) {
    // Phase 1: concurrent streaming ingest + publisher.
    const std::size_t lo = round * slice;
    const std::size_t hi =
        (round + 1 == std::size(shard_plan)) ? fleet.size() : lo + slice;
    std::atomic<bool> round_done{false};
    std::vector<std::thread> writers;
    for (std::size_t w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] {
        for (std::size_t i = lo + w; i < hi; i += 2) svc.ingest_one(fleet[i]);
      });
    }
    std::thread publisher([&] {
      while (!round_done.load(std::memory_order_relaxed)) svc.publish();
    });
    for (auto& th : writers) th.join();
    round_done.store(true, std::memory_order_relaxed);
    publisher.join();

    // Phase 2: writers and publisher quiesced (rebalance's documented
    // precondition); readers are still running. Rebalancing must
    // preserve the published map bit-exactly.
    svc.publish();
    const auto before = svc.snapshot();
    const std::uint64_t before_sum = snapshot_checksum(*before);
    svc.rebalance(shard_plan[round]);
    EXPECT_EQ(svc.n_shards(), shard_plan[round]);
    svc.publish();
    const auto after = svc.snapshot();
    EXPECT_EQ(snapshot_checksum(*after), before_sum) << "round " << round;
    expect_snapshots_identical(*after, *before);
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  EXPECT_EQ(epoch_regressions.load(), 0u);
  EXPECT_EQ(pin_violations.load(), 0u);
  EXPECT_GT(reads.load(), 0u);

  // Conservation after the full phased schedule: same cells and coverage
  // as one serial pass over the whole fleet.
  MapService serial(net, base_config(4));
  for (const auto& up : fleet) serial.ingest_one(up);
  serial.publish();
  EXPECT_EQ(svc.total_samples_ingested(), serial.total_samples_ingested());
  const auto a = svc.snapshot();
  const auto b = serial.snapshot();
  ASSERT_EQ(a->roads.size(), b->roads.size());
  for (std::size_t r = 0; r < a->roads.size(); ++r) {
    EXPECT_EQ(a->roads[r].cells, b->roads[r].cells) << r;
    EXPECT_EQ(a->roads[r].coverage, b->roads[r].coverage) << r;
  }
}

}  // namespace
}  // namespace rge::service

// Tests for FusionAccumulator's time-decayed eviction of stale
// contributions (FusionConfig::decay_tau_s).
//
// Contracts pinned here:
//  * decay OFF (the default) is bit-identical to the pre-decay
//    accumulator: snapshot() == fuse_tracks_distance on synthetic fleets
//    and on every scenario of the regression matrix;
//  * decay ON down-weights stale epochs: a cell repaved by a much newer
//    contribution converges to the new value;
//  * decayed sums are order-independent bit-for-bit (the decay factor is
//    a pure function of contribution sample times, and IEEE addition of
//    the two aligned contributions commutes);
//  * MapService epochs with decay enabled stay bit-identical across
//    1/2/8-thread pools x 1/4/16 shards and across rebalance();
//  * merge() of mismatched decay_tau_s throws, naming the field;
//  * eviction is observable via the fusion.decayed_weight counter.
#include "core/track_fusion.hpp"

#include <cmath>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "road/network.hpp"
#include "runtime/thread_pool.hpp"
#include "service/map_service.hpp"
#include "testing/fault_injection.hpp"
#include "testing/scenario.hpp"

namespace rge::core {
namespace {

/// Deterministic synthetic gradient track covering s in [s0, s1]
/// (test_fusion_accumulator idiom), with a controllable time offset so
/// tests can stage distinct upload epochs.
GradeTrack synth_track(std::uint32_t id, double s0, double s1,
                       std::size_t n, double t0 = 0.0) {
  GradeTrack tr;
  tr.source = "synth-" + std::to_string(id);
  std::mt19937 rng(1234u + id);
  std::uniform_real_distribution<double> jitter(0.0, 1.0);
  tr.t.resize(n);
  tr.s.resize(n);
  tr.grade.resize(n);
  tr.grade_var.resize(n);
  tr.speed.resize(n);
  const double span = s1 - s0;
  for (std::size_t i = 0; i < n; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(n - 1);
    tr.s[i] = s0 + f * span;
    tr.t[i] = t0 + 40.0 * f * span / 15.0 + 0.01 * static_cast<double>(id);
    tr.grade[i] = 0.04 * std::sin(0.002 * tr.s[i]) +
                  0.003 * std::sin(0.11 * tr.s[i] + id);
    tr.grade_var[i] = 1e-5 + 1e-5 * jitter(rng);
    tr.speed[i] = 12.0 + 4.0 * std::sin(0.001 * tr.s[i] + 0.3 * id);
  }
  tr.validate();
  return tr;
}

/// Constant-grade track over [0, 1000] m at a fixed epoch.
GradeTrack flat_track(std::uint32_t id, double grade, double t0) {
  GradeTrack tr = synth_track(id, 0.0, 1000.0, 200, t0);
  for (std::size_t i = 0; i < tr.size(); ++i) {
    tr.grade[i] = grade;
    tr.grade_var[i] = 1e-5;
    tr.speed[i] = 13.0;
  }
  return tr;
}

std::vector<GradeTrack> synth_fleet(std::size_t n_tracks, double length_m) {
  std::vector<GradeTrack> tracks;
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> head(0.0, 0.02 * length_m);
  std::uniform_real_distribution<double> tail(0.95 * length_m, length_m);
  for (std::size_t v = 0; v < n_tracks; ++v) {
    const double s0 = head(rng);
    const double s1 = tail(rng);
    tracks.push_back(synth_track(static_cast<std::uint32_t>(v), s0, s1,
                                 400 + 17 * (v % 9)));
  }
  return tracks;
}

void expect_bit_identical(const GradeTrack& a, const GradeTrack& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.t[i], b.t[i]) << i;
    EXPECT_EQ(a.s[i], b.s[i]) << i;
    EXPECT_EQ(a.grade[i], b.grade[i]) << i;
    EXPECT_EQ(a.grade_var[i], b.grade_var[i]) << i;
    EXPECT_EQ(a.speed[i], b.speed[i]) << i;
  }
}

// ---- decay off == pre-decay accumulator, bit for bit -------------------

TEST(FusionDecay, OffIsBitIdenticalToFuseDistanceOnSynthFleet) {
  const auto tracks = synth_fleet(12, 8000.0);
  FusionConfig cfg;
  cfg.decay_tau_s = 0.0;  // explicit: the default, the disabled path
  FusionAccumulator acc(make_overlap_grid(tracks, cfg), cfg);
  acc.add_tracks(tracks);
  expect_bit_identical(acc.snapshot(), fuse_tracks_distance(tracks, cfg));
}

TEST(FusionDecay, OffIsBitIdenticalOnEveryMatrixScenario) {
  // Real pipeline tracks (EKF variances, degraded GPS, hostile worlds):
  // with decay disabled the new code path must be invisible on all of
  // them.
  const testing::FaultSpec no_fault;
  std::size_t checked = 0;
  for (const auto& spec : testing::scenario_matrix()) {
    const auto world = testing::build_world(spec);
    const auto run = testing::run_scenario(spec, world, no_fault, 1);
    if (run.rejected || run.tracks.size() < 2) continue;
    try {
      const GradeTrack dist = fuse_tracks_distance(run.tracks);
      FusionAccumulator acc(make_overlap_grid(run.tracks, FusionConfig{}),
                            FusionConfig{});
      acc.add_tracks(run.tracks);
      expect_bit_identical(acc.snapshot(), dist);
      ++checked;
    } catch (const std::invalid_argument&) {
      // Some per-source track sets may not overlap in distance.
    }
  }
  EXPECT_GE(checked, 10u);
}

// ---- decay semantics ----------------------------------------------------

TEST(FusionDecay, StaleEpochIsDownWeighted) {
  // Epoch A reports 0 % grade; 10000 s later epoch B repaves at 5 %.
  const GradeTrack old_epoch = flat_track(1, 0.0, 0.0);
  const GradeTrack new_epoch = flat_track(2, 0.05, 10000.0);

  FusionConfig no_decay;
  FusionAccumulator plain(make_overlap_grid({old_epoch, new_epoch}, no_decay),
                          no_decay);
  plain.add_track(old_epoch);
  plain.add_track(new_epoch);

  FusionConfig decay;
  decay.decay_tau_s = 600.0;
  FusionAccumulator decayed(
      make_overlap_grid({old_epoch, new_epoch}, decay), decay);
  decayed.add_track(old_epoch);
  decayed.add_track(new_epoch);

  const GradeTrack fused_plain = plain.snapshot();
  const GradeTrack fused_decay = decayed.snapshot();
  ASSERT_EQ(fused_plain.size(), fused_decay.size());
  for (std::size_t i = 0; i < fused_decay.size(); ++i) {
    // Without decay both epochs weigh equally: fused sits midway. With
    // decay the stale epoch is exp(-10000/600) ~ 0 of the new one.
    EXPECT_NEAR(fused_plain.grade[i], 0.025, 1e-3) << i;
    EXPECT_NEAR(fused_decay.grade[i], 0.05, 1e-4) << i;
    // The decayed mean traversal time converges to the new epoch's too
    // (decayed_count_ divisor), and must stay finite/sane.
    EXPECT_GT(fused_decay.t[i], 9000.0) << i;
  }
}

TEST(FusionDecay, DecayedSumsAreOrderIndependentBitwise) {
  // The decay factor is a pure function of the two contributions' sample
  // times, and aligning both to max(ref_a, ref_b) makes the final sums an
  // IEEE-commutative addition — so upload order cannot matter, bitwise.
  const GradeTrack a = flat_track(1, 0.01, 0.0);
  const GradeTrack b = flat_track(2, 0.03, 500.0);
  FusionConfig cfg;
  cfg.decay_tau_s = 300.0;
  const FusionGrid grid = make_overlap_grid({a, b}, cfg);

  FusionAccumulator ab(grid, cfg);
  ab.add_track(a);
  ab.add_track(b);
  FusionAccumulator ba(grid, cfg);
  ba.add_track(b);
  ba.add_track(a);
  expect_bit_identical(ab.snapshot(), ba.snapshot());
}

TEST(FusionDecay, SingleEpochRatiosUnchanged) {
  // Scaling every contribution of a cell by (nearly) the same factor
  // cancels in the snapshot ratios: a fleet uploaded within one short
  // epoch fuses to (almost) the same grades with decay on or off.
  const auto tracks = synth_fleet(6, 3000.0);
  FusionConfig off;
  FusionAccumulator plain(make_overlap_grid(tracks, off), off);
  plain.add_tracks(tracks);
  FusionConfig on;
  on.decay_tau_s = 1e7;  // tau >> epoch spread: decay factors ~ 1
  FusionAccumulator decayed(make_overlap_grid(tracks, on), on);
  decayed.add_tracks(tracks);
  const GradeTrack fp = plain.snapshot();
  const GradeTrack fd = decayed.snapshot();
  ASSERT_EQ(fp.size(), fd.size());
  for (std::size_t i = 0; i < fp.size(); ++i) {
    EXPECT_NEAR(fp.grade[i], fd.grade[i], 1e-6) << i;
    EXPECT_NEAR(fp.speed[i], fd.speed[i], 1e-3) << i;
  }
}

TEST(FusionDecay, MergeNamesMismatchedDecayTau) {
  const FusionGrid grid{0.0, 100.0, 5.0, 21};
  FusionConfig a;
  a.decay_tau_s = 100.0;
  FusionConfig b;
  b.decay_tau_s = 200.0;
  FusionAccumulator lhs(grid, a);
  FusionAccumulator rhs(grid, b);
  try {
    lhs.merge(rhs);
    FAIL() << "merge of mismatched decay_tau_s must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("decay_tau_s"), std::string::npos)
        << e.what();
  }
}

#if RGE_OBS_ENABLED
TEST(FusionDecay, EvictionIsCountedWhenObservabilityOn) {
  obs::reset_all();
  obs::set_enabled(true);
  {
    FusionConfig cfg;
    cfg.decay_tau_s = 600.0;
    const GradeTrack old_epoch = flat_track(1, 0.0, 0.0);
    const GradeTrack new_epoch = flat_track(2, 0.05, 10000.0);
    FusionAccumulator acc(make_overlap_grid({old_epoch, new_epoch}, cfg),
                          cfg);
    acc.add_track(old_epoch);
    acc.add_track(new_epoch);  // repave: the old epoch's weight evicts
  }
  const auto snap = obs::Registry::global().snapshot();
  obs::set_enabled(false);
  const auto it = snap.counters.find("fusion.decayed_weight");
  ASSERT_NE(it, snap.counters.end());
  EXPECT_GT(it->second, 0);
}
#endif

// ---- map service: decayed epochs stay layout-deterministic -------------

service::MapServiceConfig decayed_config(std::size_t n_shards) {
  service::MapServiceConfig cfg;
  cfg.n_shards = n_shards;
  cfg.fusion.distance_step_m = 5.0;
  cfg.fusion.decay_tau_s = 900.0;
  return cfg;
}

/// Staggered-epoch fleet: each upload's timestamps sit in its own epoch
/// so the decay path actually re-weights across uploads.
std::vector<service::TrackUpload> epoch_fleet(const road::RoadNetwork& net,
                                              std::size_t n_uploads) {
  std::vector<service::TrackUpload> fleet;
  std::mt19937 rng(41);
  std::uniform_int_distribution<std::size_t> pick(0, net.size() - 1);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (std::size_t v = 0; v < n_uploads; ++v) {
    const auto r = static_cast<service::RoadId>(pick(rng));
    const road::Road& road = net.roads()[r].road;
    const double len = road.length_m();
    const double s0 = u(rng) * std::max(0.0, len - 200.0);
    const double s1 = std::min(len, s0 + 200.0 + u(rng) * (len - s0 - 200.0));
    service::TrackUpload up;
    up.road = r;
    GradeTrack tr = synth_track(static_cast<std::uint32_t>(v), s0, s1,
                                std::max<std::size_t>(
                                    32, static_cast<std::size_t>((s1 - s0) /
                                                                 4.0)),
                                /*t0=*/600.0 * static_cast<double>(v));
    up.track = std::move(tr);
    fleet.push_back(std::move(up));
  }
  return fleet;
}

void expect_snapshots_identical(const service::ServiceSnapshot& a,
                                const service::ServiceSnapshot& b) {
  ASSERT_EQ(a.roads.size(), b.roads.size());
  for (std::size_t r = 0; r < a.roads.size(); ++r) {
    ASSERT_EQ(a.roads[r].cells, b.roads[r].cells) << "road " << r;
    ASSERT_EQ(a.roads[r].coverage, b.roads[r].coverage) << "road " << r;
    ASSERT_EQ(a.roads[r].track.grade, b.roads[r].track.grade) << "road " << r;
    ASSERT_EQ(a.roads[r].track.grade_var, b.roads[r].track.grade_var)
        << "road " << r;
    ASSERT_EQ(a.roads[r].track.speed, b.roads[r].track.speed) << "road " << r;
    ASSERT_EQ(a.roads[r].track.t, b.roads[r].track.t) << "road " << r;
    ASSERT_EQ(a.roads[r].track.s, b.roads[r].track.s) << "road " << r;
  }
}

TEST(FusionDecay, MapServiceBitIdenticalAcrossLayoutsWithDecay) {
  const road::RoadNetwork net = road::make_city_network(77, 12.0);
  const auto fleet = epoch_fleet(net, 90);

  service::MapService ref(net, decayed_config(1));
  ref.ingest(fleet);
  ref.publish();
  const auto want = ref.snapshot();
  ASSERT_GT(want->epoch, 0u);

  for (const std::size_t n_shards : {1u, 4u, 16u}) {
    for (const std::size_t n_threads : {1u, 2u, 8u}) {
      runtime::ThreadPool pool(n_threads);
      service::MapService svc(net, decayed_config(n_shards));
      const std::size_t batch = 31;
      for (std::size_t i = 0; i < fleet.size(); i += batch) {
        const std::vector<service::TrackUpload> chunk(
            fleet.begin() + static_cast<std::ptrdiff_t>(i),
            fleet.begin() + static_cast<std::ptrdiff_t>(
                                std::min(fleet.size(), i + batch)));
        svc.ingest(chunk, &pool);
      }
      svc.publish(&pool);
      expect_snapshots_identical(*svc.snapshot(), *want);
    }
  }
}

TEST(FusionDecay, RebalancePreservesDecayedEpochExactly) {
  const road::RoadNetwork net = road::make_city_network(77, 12.0);
  const auto fleet = epoch_fleet(net, 60);
  service::MapService svc(net, decayed_config(4));
  svc.ingest(fleet);
  svc.publish();
  const auto before = svc.snapshot();
  for (const std::size_t new_shards : {1u, 8u, 3u}) {
    svc.rebalance(new_shards);
    svc.publish();
    expect_snapshots_identical(*svc.snapshot(), *before);
  }
}

}  // namespace
}  // namespace rge::core

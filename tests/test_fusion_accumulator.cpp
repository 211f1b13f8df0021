// Tests for the streaming FusionAccumulator and the cursor-based fusion
// hot paths.
//
// Contracts pinned here:
//  * FusionAccumulator::snapshot() on the overlap grid is bit-identical
//    to fuse_tracks_distance on the same tracks;
//  * the cursor-based fuse_tracks_{distance,time} are bit-identical to
//    the *_reference oracles (per-sample binary search) on
//    synthetic tracks AND on every scenario of the regression matrix;
//  * add_tracks_parallel is bit-reproducible across 1/2/8-thread pools;
//  * partial coverage, merge mismatch, and batch parity behave as
//    documented.
#include "core/track_fusion.hpp"

#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "oracles/track_fusion.hpp"
#include "runtime/thread_pool.hpp"
#include "testing/fault_injection.hpp"
#include "testing/scenario.hpp"

namespace rge::core {
namespace {

using oracles::fuse_tracks_distance_reference;
using oracles::fuse_tracks_time_reference;

/// Deterministic synthetic gradient track covering s in [s0, s1].
GradeTrack synth_track(std::uint32_t id, double s0, double s1,
                       std::size_t n) {
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
    tr.t[i] = 40.0 * f * span / 15.0 + 0.01 * static_cast<double>(id);
    tr.grade[i] = 0.04 * std::sin(0.002 * tr.s[i]) +
                  0.003 * std::sin(0.11 * tr.s[i] + id);
    tr.grade_var[i] = 1e-5 + 1e-5 * jitter(rng);
    tr.speed[i] = 12.0 + 4.0 * std::sin(0.001 * tr.s[i] + 0.3 * id);
  }
  tr.validate();
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

// ---- accumulator == batch fusion ---------------------------------------

TEST(FusionAccumulator, SnapshotMatchesFuseDistanceBitExact) {
  const auto tracks = synth_fleet(12, 8000.0);
  FusionConfig cfg;
  cfg.distance_step_m = 7.0;

  const GradeTrack fused = fuse_tracks_distance(tracks, cfg);
  const GradeTrack reference = fuse_tracks_distance_reference(tracks, cfg);
  expect_bit_identical(fused, reference);

  FusionAccumulator acc(make_overlap_grid(tracks, cfg), cfg);
  acc.add_tracks(tracks);
  EXPECT_EQ(acc.tracks_added(), tracks.size());
  expect_bit_identical(acc.snapshot(), fused);
}

TEST(FusionAccumulator, StreamingSnapshotsMatchReFusionAtEveryStep) {
  const auto tracks = synth_fleet(6, 3000.0);
  FusionConfig cfg;
  // Streamed adds must agree with re-fusing the prefix from scratch —
  // but only when both fuse on the same grid, so fix it to the full
  // fleet's overlap grid up front (the cloud's serving grid).
  FusionAccumulator acc(make_overlap_grid(tracks, cfg), cfg);
  for (std::size_t v = 0; v < tracks.size(); ++v) {
    acc.add_track(tracks[v]);
    const std::vector<GradeTrack> prefix(tracks.begin(),
                                         tracks.begin() + v + 1);
    FusionAccumulator from_scratch(acc.grid(), cfg);
    from_scratch.add_tracks(prefix);
    expect_bit_identical(acc.snapshot(), from_scratch.snapshot());
  }
}

TEST(FusionAccumulator, PartialCoverageTracksOnlyTouchTheirCells) {
  // Fixed city grid [0, 1000]; two trips covering different sub-spans.
  FusionGrid grid{0.0, 1000.0, 10.0, 101};
  FusionConfig cfg;
  FusionAccumulator acc(grid, cfg);
  acc.add_track(synth_track(1, 0.0, 500.0, 200));
  acc.add_track(synth_track(2, 300.0, 1000.0, 200));

  const auto cov = acc.coverage();
  ASSERT_EQ(cov.size(), grid.n);
  EXPECT_EQ(cov[0], 1u);                   // s=0: first trip only
  EXPECT_EQ(cov[40], 2u);                  // s=400: both
  EXPECT_EQ(cov[100], 1u);                 // s=1000: second trip only
  // Snapshot = the contiguous cells everyone covers: [300, 500].
  const GradeTrack fused = acc.snapshot();
  EXPECT_EQ(fused.s.front(), 300.0);
  EXPECT_EQ(fused.s.back(), 500.0);
  ASSERT_EQ(fused.size(), 21u);
}

TEST(FusionAccumulator, NoCommonCellThrows) {
  FusionGrid grid{0.0, 1000.0, 10.0, 101};
  FusionAccumulator acc{grid, FusionConfig{}};
  acc.add_track(synth_track(1, 0.0, 400.0, 100));
  acc.add_track(synth_track(2, 600.0, 1000.0, 100));
  EXPECT_THROW(acc.snapshot(), std::invalid_argument);
  FusionAccumulator empty{grid, FusionConfig{}};
  EXPECT_THROW(empty.snapshot(), std::invalid_argument);
}

TEST(FusionAccumulator, MergeMismatchThrows) {
  FusionGrid grid{0.0, 100.0, 5.0, 21};
  FusionGrid other_grid{0.0, 100.0, 10.0, 11};
  FusionConfig cfg;
  FusionConfig other_cfg;
  other_cfg.min_variance = 1e-6;
  FusionAccumulator a{grid, cfg};
  EXPECT_THROW(a.merge(FusionAccumulator{other_grid, cfg}),
               std::invalid_argument);
  EXPECT_THROW(a.merge(FusionAccumulator{grid, other_cfg}),
               std::invalid_argument);
  // Same grid + config merges fine.
  FusionAccumulator b{grid, cfg};
  b.add_track(synth_track(3, 0.0, 100.0, 64));
  a.merge(b);
  EXPECT_EQ(a.tracks_added(), 1u);
}

TEST(FusionAccumulator, ParallelAddDeterministicAcrossThreadCounts) {
  const auto tracks = synth_fleet(40, 5000.0);
  const FusionConfig cfg;
  const FusionGrid grid = make_overlap_grid(tracks, cfg);

  FusionAccumulator serial(grid, cfg);
  serial.add_tracks(tracks);
  const GradeTrack serial_snap = serial.snapshot();

  GradeTrack first;
  for (const std::size_t n_threads : {1u, 2u, 8u}) {
    runtime::ThreadPool pool(n_threads);
    FusionAccumulator acc(grid, cfg);
    acc.add_tracks_parallel(tracks, pool);
    EXPECT_EQ(acc.tracks_added(), tracks.size());
    const GradeTrack snap = acc.snapshot();
    if (n_threads == 1u) {
      first = snap;
    } else {
      // Fixed chunking => bit-identical regardless of pool size.
      expect_bit_identical(snap, first);
    }
    // Against serial adds the float grouping differs (chunk partials are
    // merged), so agreement is to rounding, not bitwise.
    ASSERT_EQ(snap.size(), serial_snap.size());
    for (std::size_t i = 0; i < snap.size(); ++i) {
      EXPECT_NEAR(snap.grade[i], serial_snap.grade[i], 1e-12);
      EXPECT_NEAR(snap.grade_var[i], serial_snap.grade_var[i], 1e-12);
    }
  }
}

// ---- sparse snapshots ----------------------------------------------------

TEST(FusionAccumulator, SnapshotCoveredFullCoverageBitIdentical) {
  const auto tracks = synth_fleet(8, 4000.0);
  FusionConfig cfg;
  FusionAccumulator acc(make_overlap_grid(tracks, cfg), cfg);
  acc.add_tracks(tracks);

  // Every track covers every overlap-grid cell, so thresholding at the
  // full track count must reproduce the strict snapshot (and therefore
  // fuse_tracks_distance) bit for bit.
  const auto covered = acc.snapshot_covered(
      static_cast<std::uint32_t>(acc.tracks_added()));
  expect_bit_identical(covered.track, acc.snapshot());
  expect_bit_identical(covered.track, fuse_tracks_distance(tracks, cfg));
  ASSERT_EQ(covered.size(), acc.grid().n);
  for (std::size_t j = 0; j < covered.size(); ++j) {
    EXPECT_EQ(covered.cells[j], j);
    EXPECT_EQ(covered.coverage[j], acc.tracks_added());
  }
}

TEST(FusionAccumulator, SnapshotCoveredServesSparseCoverage) {
  // Two trips over disjoint sub-spans of a city grid: the strict
  // snapshot throws (no common cell), but the sparse snapshot serves
  // both covered runs with a gap between them.
  FusionGrid grid{0.0, 1000.0, 10.0, 101};
  FusionAccumulator acc{grid, FusionConfig{}};
  acc.add_track(synth_track(1, 0.0, 400.0, 100));     // cells 0..40
  acc.add_track(synth_track(2, 600.0, 1000.0, 100));  // cells 60..100
  EXPECT_THROW(acc.snapshot(), std::invalid_argument);

  const auto sparse = acc.snapshot_covered();
  ASSERT_EQ(sparse.size(), 82u);
  for (std::size_t j = 0; j < sparse.size(); ++j) {
    EXPECT_EQ(sparse.track.s[j], grid.at(sparse.cells[j])) << j;
    EXPECT_EQ(sparse.coverage[j], 1u) << j;
    if (j > 0) {
      EXPECT_GT(sparse.cells[j], sparse.cells[j - 1]) << j;
    }
  }
  EXPECT_EQ(sparse.cells.front(), 0u);
  EXPECT_EQ(sparse.cells.back(), 100u);

  // Nothing reaches coverage 2; that is an empty result, not an error.
  EXPECT_EQ(acc.snapshot_covered(2).size(), 0u);
  FusionAccumulator empty{grid, FusionConfig{}};
  EXPECT_EQ(empty.snapshot_covered().size(), 0u);
  EXPECT_THROW(acc.snapshot_covered(0), std::invalid_argument);
}

TEST(FusionAccumulator, SnapshotCoveredThresholdBoundaryIsInclusive) {
  // Staircase coverage: cells 0..30 seen by 3 tracks, 31..60 by 2, 61..100
  // by 1. min_coverage == k must include every cell with coverage >= k and
  // exclude coverage k-1 exactly — an off-by-one here silently serves (or
  // drops) an entire coverage step.
  FusionGrid grid{0.0, 1000.0, 10.0, 101};
  FusionAccumulator acc{grid, FusionConfig{}};
  acc.add_track(synth_track(1, 0.0, 1000.0, 400));  // cells 0..100
  acc.add_track(synth_track(2, 0.0, 600.0, 300));   // cells 0..60
  acc.add_track(synth_track(3, 0.0, 300.0, 200));   // cells 0..30

  const auto want_cells = [&](std::uint32_t min_cov, std::size_t first,
                              std::size_t last) {
    const auto snap = acc.snapshot_covered(min_cov);
    ASSERT_EQ(snap.size(), last - first + 1) << "min_coverage=" << min_cov;
    EXPECT_EQ(snap.cells.front(), first);
    EXPECT_EQ(snap.cells.back(), last);
    for (std::size_t j = 0; j < snap.size(); ++j) {
      EXPECT_GE(snap.coverage[j], min_cov) << j;
    }
  };
  want_cells(1, 0, 100);  // everything covered at least once
  want_cells(2, 0, 60);   // coverage-1 tail excluded, boundary cell 60 kept
  want_cells(3, 0, 30);   // boundary cell 30 kept at exactly 3
  EXPECT_EQ(acc.snapshot_covered(4).size(), 0u);  // above max: empty, no throw

  // The served values for a thresholded cell are bit-identical to the
  // unthresholded sparse snapshot at the same cell — thresholding filters,
  // it never refuses.
  const auto all = acc.snapshot_covered(1);
  const auto top = acc.snapshot_covered(3);
  for (std::size_t j = 0; j < top.size(); ++j) {
    EXPECT_EQ(top.cells[j], all.cells[j]);
    EXPECT_EQ(top.coverage[j], all.coverage[j]);
    EXPECT_EQ(top.track.grade[j], all.track.grade[j]) << j;
    EXPECT_EQ(top.track.grade_var[j], all.track.grade_var[j]) << j;
    EXPECT_EQ(top.track.s[j], all.track.s[j]) << j;
  }
}

TEST(FusionAccumulator, MergeErrorNamesMismatchedField) {
  const FusionGrid grid{0.0, 100.0, 5.0, 21};
  const FusionConfig cfg;
  const auto expect_names = [&](const FusionGrid& g2, const FusionConfig& c2,
                                const char* field) {
    FusionAccumulator a{grid, cfg};
    const FusionAccumulator b{g2, c2};
    try {
      a.merge(b);
      FAIL() << "merge accepted a " << field << " mismatch";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  FusionGrid step = grid;
  step.step = 2.5;
  expect_names(step, cfg, "spacing");
  FusionGrid origin = grid;
  origin.lo = 5.0;
  expect_names(origin, cfg, "origin");
  FusionGrid length = grid;
  length.hi = 200.0;
  length.n = 41;
  expect_names(length, cfg, "length");
  FusionConfig min_var = cfg;
  min_var.min_variance = 1e-6;
  expect_names(grid, min_var, "min_variance");
  FusionConfig step_cfg = cfg;
  step_cfg.distance_step_m = 10.0;
  expect_names(grid, step_cfg, "distance_step_m");
}

// ---- cursor paths vs reference -----------------------------------------

TEST(CursorParity, DistanceFusionMatchesReferenceOnSynthetics) {
  for (const std::size_t n_tracks : {1u, 2u, 5u, 17u}) {
    const auto tracks = synth_fleet(n_tracks, 2500.0);
    FusionConfig cfg;
    cfg.distance_step_m = 3.0;
    expect_bit_identical(fuse_tracks_distance(tracks, cfg),
                         fuse_tracks_distance_reference(tracks, cfg));
  }
}

TEST(CursorParity, TimeFusionMatchesReferenceOnSynthetics) {
  const auto tracks = synth_fleet(4, 2000.0);
  for (std::size_t ref = 0; ref < tracks.size(); ++ref) {
    expect_bit_identical(fuse_tracks_time(tracks, ref),
                         fuse_tracks_time_reference(tracks, ref));
  }
}

TEST(CursorParity, BatchFusionBitIdenticalToSerial) {
  const auto tracks = synth_fleet(9, 6000.0);
  const FusionConfig cfg;
  const GradeTrack serial = fuse_tracks_distance(tracks, cfg);
  for (const std::size_t n_threads : {1u, 2u, 8u}) {
    runtime::ThreadPool pool(n_threads);
    expect_bit_identical(fuse_tracks_distance_batch(tracks, cfg, pool),
                         serial);
  }
}

TEST(CursorParity, MatchesReferenceOnEveryMatrixScenario) {
  // The full regression matrix: real pipeline tracks (EKF variances, GPS
  // faults, multi-trip uploads), not synthetics. The cursor rewrite must
  // be invisible — bit-for-bit — on all of them.
  const testing::FaultSpec no_fault;
  std::size_t checked = 0;
  for (const auto& spec : testing::scenario_matrix()) {
    const auto world = testing::build_world(spec);
    const auto run = testing::run_scenario(spec, world, no_fault, 1);
    if (run.rejected || run.tracks.size() < 2) continue;
    ++checked;

    expect_bit_identical(fuse_tracks_time(run.tracks),
                         fuse_tracks_time_reference(run.tracks));
    try {
      const GradeTrack dist = fuse_tracks_distance(run.tracks);
      expect_bit_identical(dist,
                           fuse_tracks_distance_reference(run.tracks));
      FusionAccumulator acc(make_overlap_grid(run.tracks, FusionConfig{}),
                            FusionConfig{});
      acc.add_tracks(run.tracks);
      expect_bit_identical(acc.snapshot(), dist);
    } catch (const std::invalid_argument&) {
      // Some per-source track sets may not overlap in distance; the
      // time-domain parity above still covers the scenario.
    }
  }
  // The committed matrix is >= 10 scenarios; parity must have actually
  // run on them, not silently skipped.
  EXPECT_GE(checked, 10u);
}

}  // namespace
}  // namespace rge::core

// Test oracle: Eq. 6 track fusion with one binary search per (sample,
// track) pair. The cursor-based core::fuse_tracks_* and FusionAccumulator
// must reproduce it bit for bit (test_fusion_accumulator).
#pragma once

#include <cstddef>
#include <vector>

#include "core/track_fusion.hpp"

namespace rge::oracles {

/// Time-domain fusion on the timeline of `tracks[reference]`.
core::GradeTrack fuse_tracks_time_reference(
    const std::vector<core::GradeTrack>& tracks, std::size_t reference = 0,
    const core::FusionConfig& cfg = {});

/// Distance-domain fusion on core::make_overlap_grid(tracks, cfg).
core::GradeTrack fuse_tracks_distance_reference(
    const std::vector<core::GradeTrack>& tracks,
    const core::FusionConfig& cfg = {});

}  // namespace rge::oracles

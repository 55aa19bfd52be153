// StageFile: claim every chunk of a file and hand it to a placement
// handler, as Monarch::ClaimAndSchedule does — the staging suites' way
// to drive PlacementHandler without a read path.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/placement_handler.h"

namespace monarch::core {

/// Claims the chunks of `file` that are neither resident nor claimed and
/// schedules them on `lane`, donating `donated` (the file's leading
/// bytes). Returns false when there was nothing to claim.
inline bool StageFile(PlacementHandler& handler, const FileInfoPtr& file,
                      std::span<const std::byte> donated = {},
                      StagingLane lane = StagingLane::kDemand) {
  std::vector<std::uint32_t> chunks = handler.Claim(
      file, 0, UINT32_MAX, /*whole=*/false, /*joinable=*/false);
  if (chunks.empty()) return false;
  handler.ScheduleChunkPlacement(file, std::move(chunks),
                                 handler.Donate(0, donated), lane);
  return true;
}

}  // namespace monarch::core

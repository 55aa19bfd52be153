// Test-side reads of a file's lifecycle: the placement states the suites
// assert, restated through FileInfo's state word and chunk map, and the
// quiescence invariant a settled Monarch must hold.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>

#include "core/file_info.h"
#include "core/monarch.h"

namespace monarch::core {

/// Retryable and serving nothing from a tier: neither placed nor parked.
inline bool PfsOnly(const FileInfo& file) {
  return !file.Placed() && !file.Has(FileInfo::kParked);
}

/// Parked for good: reads stay on the PFS and nothing is resident.
inline bool Parked(const FileInfo& file) {
  return file.Has(FileInfo::kParked) && !file.Placed();
}

/// Publish chunk 0 of `file` as a resident run on `level`, as a staging
/// task would, so the file turns Placed. False when it was claimed or
/// resident already.
inline bool PublishFirstChunk(FileInfo& file, std::uint64_t chunk_bytes,
                              int level = 0) {
  pack::ChunkMap& cm = *file.EnsureChunkMap(chunk_bytes);
  std::lock_guard lock(cm.placement_mutex());
  cm.AssignTier(level);
  if (!cm.TryClaim(0)) return false;
  pack::ChunkMap::ChunkMeta meta;
  meta.stored_bytes = cm.ChunkLogicalBytes(0);
  cm.PublishRun(0, std::span(&meta, 1));
  return true;
}

/// Block until `n` reads wait on `file` in FileInfo::Await — an event,
/// not a guess at how long a thread takes to get there. False (after
/// 30 s) when they never do.
inline bool AwaitJoiners(const FileInfo& file, int n = 1) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (file.readers_coming.load(std::memory_order_acquire) < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Once its placements drain, no file of `monarch` has a wait bit set,
/// a read pin, a reader coming or a claimed chunk.
inline void ExpectQuiescent(Monarch& monarch) {
  monarch.DrainPlacements();
  for (const auto& entry : monarch.metadata().Snapshot()) {
    const FileInfoPtr file = monarch.metadata().Lookup(entry.name);
    ASSERT_NE(nullptr, file) << entry.name;
    EXPECT_FALSE(file->Has(FileInfo::kWaitBits)) << entry.name;
    EXPECT_EQ(0, file->read_pins.load()) << entry.name;
    EXPECT_EQ(0, file->readers_coming.load()) << entry.name;
    const pack::ChunkMap* cm = file->chunk_map();
    EXPECT_EQ(0u, cm != nullptr ? cm->Claims() : 0u) << entry.name;
  }
}

}  // namespace monarch::core

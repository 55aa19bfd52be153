// On-PFS container format of the small-file packing tier (the FanStore
// direction, PAPERS.md): many tiny logical files are concatenated into
// a few large *extent* files plus one binary *index*, so the PFS serves
// O(extents) streams and O(1) metadata ops instead of O(files) of each.
//
// Layout under a dataset directory `D`:
//
//   D/.pack/extent-000000.mpk     raw logical payloads, concatenated
//   D/.pack/extent-000001.mpk     ...
//   D/.pack/index.mpki            the index mapping every logical name
//                                 to (extent, offset, length, CRC32C)
//
// Extents store logical bytes verbatim (compression is a *staging-side*
// transform — see pack/codec.h); the per-entry CRC32C lets any consumer
// verify a logical file end-to-end no matter which path the bytes took.
// Files sit back to back in an extent, so a run of neighbours is one
// contiguous byte range: Monarch serves a cold whole-file read and
// stages the unstaged neighbours around it from one PFS read of that
// range (Monarch::Miss), which is what keeps the PFS at
// O(extents) streams per epoch rather than O(files).
//
// Index file format (little-endian):
//
//   magic "MPKI" | version u32 | extent_count u32 | entry_count u64
//   per entry: name_len u32 | name bytes | extent u32 | offset u64
//              | length u64 | crc32c u32
//
// `PackWriter` builds all of it through a StorageEngine, one extent in
// memory at a time, so packing works against any backend (including the
// in-memory PFS models the benches use).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "storage/storage_engine.h"
#include "util/status.h"

namespace monarch::pack {

inline constexpr std::string_view kPackSubdir = ".pack";
inline constexpr std::string_view kIndexMagic = "MPKI";
inline constexpr std::uint32_t kIndexVersion = 1;

/// `D/.pack/index.mpki`.
std::string IndexPath(const std::string& dataset_dir);
/// `D/.pack/extent-NNNNNN.mpk`.
std::string ExtentPath(const std::string& dataset_dir, std::uint32_t extent);
/// True for paths inside any `.pack/` container directory — the packed
/// engine hides these from namespace listings.
bool IsPackInternalPath(std::string_view path);

/// Aggregates logical files into container extents. Not thread-safe:
/// packing is a one-shot dataset-preparation step.
class PackWriter {
 public:
  /// Extents and the index land under `dataset_dir` on `engine`;
  /// `extent_bytes` is the target extent payload size (an extent is
  /// flushed once it reaches it — single files larger than the target
  /// get an extent of their own rather than being split).
  PackWriter(storage::StorageEngine& engine, std::string dataset_dir,
             std::uint64_t extent_bytes);

  /// Append one logical file. Names must be unique, non-empty, and may
  /// not contain '#' (reserved for chunk-object names) or traverse into
  /// `.pack/`.
  Status Add(const std::string& logical_name,
             std::span<const std::byte> payload);

  /// Flush the tail extent and write the index. Add() is invalid
  /// afterwards; Finish() twice is an error.
  Status Finish();

  [[nodiscard]] std::uint64_t logical_files() const {
    return static_cast<std::uint64_t>(entries_.size());
  }
  [[nodiscard]] std::uint64_t logical_bytes() const {
    return logical_bytes_;
  }
  /// Extents written so far (the tail extent counts once flushed).
  [[nodiscard]] std::uint32_t extents_written() const {
    return next_extent_;
  }

 private:
  struct Entry {
    std::string name;
    std::uint32_t extent = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint32_t crc32c = 0;
  };

  Status FlushExtent();

  storage::StorageEngine& engine_;
  const std::string dataset_dir_;
  const std::uint64_t extent_bytes_;

  std::vector<std::byte> current_;  ///< tail extent being filled
  std::uint32_t next_extent_ = 0;
  std::vector<Entry> entries_;
  std::unordered_set<std::string> names_;
  std::uint64_t logical_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace monarch::pack

// MetadataContainer: MONARCH's virtual namespace over the storage
// hierarchy (§III-A). Populated once at startup by traversing the PFS
// dataset directory (the "metadata initialization phase" the paper times
// at ~13s / ~52s for the 100/200 GiB datasets), updated at runtime by the
// placement handler, and discarded with the job — an ephemeral storage
// model, like the HPC jobs it serves.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/file_info.h"
#include "storage/storage_engine.h"
#include "util/sharded_map.h"
#include "util/status.h"

namespace monarch::core {

class MetadataContainer {
 public:
  MetadataContainer() = default;

  /// Traverse `dataset_dir` on the PFS engine and build a FileInfo per
  /// file, all initially PFS-resident. Returns the number of files
  /// registered. The walk's metadata ops hit the PFS engine (they are the
  /// startup cost the paper measures).
  Result<std::uint64_t> Populate(storage::StorageEngine& pfs,
                                 const std::string& dataset_dir);

  /// Register a single file (used by tests and by lazy discovery of files
  /// that appeared after startup). Returns false if already present.
  bool Register(const std::string& name, std::uint64_t size);

  /// Hot-path lookup: probes the file's shard under its shared lock and
  /// never builds a temporary key — reader threads call this once per
  /// Read.
  [[nodiscard]] FileInfoPtr Lookup(std::string_view name) const {
    return files_.Find(name).value_or(nullptr);
  }

  [[nodiscard]] bool Contains(const std::string& name) const {
    return files_.Contains(name);
  }

  [[nodiscard]] std::uint64_t FileCount() const { return files_.Size(); }

  /// Total dataset bytes registered.
  [[nodiscard]] std::uint64_t TotalBytes() const noexcept {
    return total_bytes_.load(std::memory_order_relaxed);
  }

  /// Snapshot of every file's (name, size, state); sorted by name.
  struct Entry {
    std::string name;
    std::uint64_t size;
    PlacementState state;
  };
  [[nodiscard]] std::vector<Entry> Snapshot() const;

  /// Seconds spent inside the last Populate() call.
  [[nodiscard]] double init_seconds() const noexcept { return init_seconds_; }

 private:
  ShardedMap<std::string, FileInfoPtr, StringHash, std::equal_to<>> files_{64};
  std::atomic<std::uint64_t> total_bytes_{0};
  double init_seconds_ = 0;
};

}  // namespace monarch::core

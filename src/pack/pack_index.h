// In-memory pack index: the lookup side of pack_format.h. Loaded once
// at startup from `<dataset_dir>/.pack/index.mpki`, then immutable —
// every consumer holds a shared_ptr<const PackIndex> and probes it
// lock-free (and allocation-free: the map is transparent-keyed, so a
// string_view path never materialises a std::string). Each extent also
// lists its files in order, so a read can find a file's neighbours and
// fetch a stretch of them with one extent read.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/storage_engine.h"
#include "util/sharded_map.h"  // StringHash (transparent)
#include "util/status.h"

namespace monarch::pack {

/// Where one logical file lives inside the container extents.
struct PackEntry {
  std::uint32_t extent = 0;   ///< extent id (see ExtentPath)
  std::uint64_t offset = 0;   ///< byte offset inside the extent
  std::uint64_t length = 0;   ///< logical file size
  std::uint32_t crc32c = 0;   ///< CRC32C of the logical bytes
  std::uint32_t slot = 0;     ///< position in ExtentMembers(extent)
};

/// One logical file of an extent (PackIndex::ExtentMembers).
struct ExtentMember {
  std::string_view name;
  const PackEntry* entry = nullptr;
};

class PackIndex {
 public:
  /// Load `<dataset_dir>/.pack/index.mpki` from `engine`. NOT_FOUND
  /// when no index exists (the dataset is simply not packed); DATA_LOSS
  /// on a torn or corrupt index.
  static Result<std::shared_ptr<const PackIndex>> Load(
      storage::StorageEngine& engine, const std::string& dataset_dir);

  /// Entry of `logical_name`, or nullptr. Lock- and allocation-free.
  [[nodiscard]] const PackEntry* Find(std::string_view logical_name) const {
    const auto it = entries_.find(logical_name);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// Engine path of the extent holding `entry` (precomputed strings —
  /// the read hot path never rebuilds them).
  [[nodiscard]] const std::string& ExtentPathOf(
      const PackEntry& entry) const {
    return extent_paths_[entry.extent];
  }

  /// The logical files of `extent` in index order — PackWriter's offset
  /// order; a file's neighbours sit at entry.slot - 1 and entry.slot + 1.
  [[nodiscard]] std::span<const ExtentMember> ExtentMembers(
      std::uint32_t extent) const {
    return extent_members_[extent];
  }

  /// Visit every (logical name, entry) pair; iteration order is the
  /// index file's (insertion) order.
  void ForEach(const std::function<void(const std::string&,
                                        const PackEntry&)>& fn) const {
    for (const std::string& name : order_) {
      fn(name, entries_.find(name)->second);
    }
  }

  [[nodiscard]] const std::string& dataset_dir() const {
    return dataset_dir_;
  }
  [[nodiscard]] std::uint64_t logical_files() const {
    return static_cast<std::uint64_t>(entries_.size());
  }
  [[nodiscard]] std::uint32_t extent_count() const {
    return static_cast<std::uint32_t>(extent_paths_.size());
  }
  [[nodiscard]] std::uint64_t logical_bytes() const {
    return logical_bytes_;
  }

 private:
  PackIndex() = default;

  std::string dataset_dir_;
  std::unordered_map<std::string, PackEntry, StringHash, std::equal_to<>>
      entries_;
  std::vector<std::string> order_;        ///< index-file entry order
  std::vector<std::string> extent_paths_;
  std::vector<std::vector<ExtentMember>> extent_members_;
  std::uint64_t logical_bytes_ = 0;
};

using PackIndexPtr = std::shared_ptr<const PackIndex>;

}  // namespace monarch::pack

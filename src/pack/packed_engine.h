// PackedPfsEngine: presents a packed dataset (pack_format.h) as the
// flat logical namespace the rest of MONARCH already understands. It
// wraps the raw PFS engine and a loaded PackIndex:
//
//   * reads/stat of an indexed logical name translate to extent reads
//     at `entry.offset + delta` — so `MetadataContainer::Populate`, the
//     staging pipeline's PFS reads, and every rung of the degradation
//     ladder work on packed datasets unchanged;
//   * `ListFiles` lists logical names (and hides `.pack/` internals),
//     so the namespace walk sees a million files while the PFS served
//     two metadata ops;
//   * unindexed names (checkpoints, other datasets) pass straight
//     through to the base engine — extent paths included, which is how
//     a stretch read (Monarch::Miss) fetches several neighbouring
//     logical files with one extent read through the same PFS driver;
//   * indexed names are immutable — writes/deletes against them are
//     FAILED_PRECONDITION, never silent extent corruption.
//
// IoStats are forwarded to the base engine: PFS pressure metrics keep
// measuring the physical device, which is exactly what the
// ext_smallfile bench compares across packed and naive arms.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "pack/pack_index.h"
#include "storage/storage_engine.h"

namespace monarch::pack {

class PackedPfsEngine final : public storage::StorageEngine {
 public:
  PackedPfsEngine(storage::StorageEnginePtr base, PackIndexPtr index)
      : base_(std::move(base)), index_(std::move(index)) {}

  Result<std::size_t> Read(std::string_view path, std::uint64_t offset,
                           std::span<std::byte> dst) override;
  Result<storage::ReadView> ReadZeroCopy(std::string_view path,
                                         std::uint64_t offset,
                                         std::uint64_t max_bytes) override;
  Status Write(const std::string& path,
               std::span<const std::byte> data) override;
  Status WriteAt(const std::string& path, std::uint64_t offset,
                 std::span<const std::byte> data) override;
  Status Delete(const std::string& path) override;
  Result<std::uint64_t> FileSize(const std::string& path) override;
  Result<bool> Exists(const std::string& path) override;
  Result<std::vector<storage::FileStat>> ListFiles(
      const std::string& dir) override;

  storage::IoStats& Stats() override { return base_->Stats(); }
  [[nodiscard]] std::string Name() const override { return base_->Name(); }

  [[nodiscard]] const PackIndexPtr& index() const { return index_; }
  [[nodiscard]] const storage::StorageEnginePtr& base() const {
    return base_;
  }

 private:
  storage::StorageEnginePtr base_;
  PackIndexPtr index_;
};

}  // namespace monarch::pack

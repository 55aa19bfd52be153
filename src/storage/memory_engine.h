// In-RAM engine: the persistent-memory/RAM tier the paper's §VI suggests
// exploring, and the fast backend for unit tests.
//
// Files are held as immutable shared buffers so ReadZeroCopy can lend a
// page span to callers (a run read whole into a deposit, a peer's run
// fetched over the fabric): a ReadView pins the buffer it was cut
// from, and writers swap in a fresh buffer instead of mutating in place,
// so a lent span is never recycled mid-read even across Delete/Write.
#pragma once

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "storage/storage_engine.h"

namespace monarch::storage {

class MemoryEngine final : public StorageEngine {
 public:
  explicit MemoryEngine(std::string name = "ram");

  Result<std::size_t> Read(std::string_view path, std::uint64_t offset,
                           std::span<std::byte> dst) override;
  Result<ReadView> ReadZeroCopy(std::string_view path, std::uint64_t offset,
                                std::uint64_t max_bytes) override;
  Status Write(const std::string& path,
               std::span<const std::byte> data) override;
  Status WriteAt(const std::string& path, std::uint64_t offset,
                 std::span<const std::byte> data) override;
  Status Delete(const std::string& path) override;
  Result<std::uint64_t> FileSize(const std::string& path) override;
  Result<bool> Exists(const std::string& path) override;
  Result<std::vector<FileStat>> ListFiles(const std::string& dir) override;

  IoStats& Stats() override { return stats_; }
  [[nodiscard]] std::string Name() const override { return name_; }

  /// Total bytes currently stored (tests assert quota accounting matches).
  [[nodiscard]] std::uint64_t TotalBytes() const;

 private:
  using Buffer = std::shared_ptr<const std::vector<std::byte>>;

  std::string name_;
  IoStats stats_;
  mutable std::shared_mutex mu_;
  // Ordered so ListFiles gets sorted output for free; transparent
  // comparator so string_view lookups don't build a temporary key.
  std::map<std::string, Buffer, std::less<>> files_;
  // Last member: deregisters from the global MetricsRegistry before
  // stats_ (and files_) are destroyed.
  obs::SourceRegistration stats_reg_;
};

}  // namespace monarch::storage

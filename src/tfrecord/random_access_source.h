// RandomAccessSource: byte-addressable view the TFRecord reader streams
// from. Adapters exist for a raw storage engine and (in core/) for the
// MONARCH middleware, so the same reader code serves both the vanilla
// and the MONARCH-enabled pipelines — mirroring how the paper swaps only
// the pread call inside TensorFlow's file-system driver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "storage/storage_engine.h"
#include "util/status.h"

namespace monarch::tfrecord {

class RandomAccessSource {
 public:
  virtual ~RandomAccessSource() = default;

  /// Read up to dst.size() bytes at `offset`; returns bytes read (0 at EOF).
  virtual Result<std::size_t> ReadAt(std::uint64_t offset,
                                     std::span<std::byte> dst) = 0;

  /// Total size of the underlying object.
  virtual Result<std::uint64_t> Size() = 0;

  [[nodiscard]] virtual std::string Name() const = 0;
};

using RandomAccessSourcePtr = std::unique_ptr<RandomAccessSource>;

/// Adapter: one file on one storage engine.
class EngineSource final : public RandomAccessSource {
 public:
  EngineSource(storage::StorageEnginePtr engine, std::string path)
      : engine_(std::move(engine)), path_(std::move(path)) {}

  Result<std::size_t> ReadAt(std::uint64_t offset,
                             std::span<std::byte> dst) override {
    return engine_->Read(path_, offset, dst);
  }

  Result<std::uint64_t> Size() override { return engine_->FileSize(path_); }

  [[nodiscard]] std::string Name() const override { return path_; }

 private:
  storage::StorageEnginePtr engine_;
  std::string path_;
};

}  // namespace monarch::tfrecord

// Bench-side decorators over the library's public API. Each forwards
// every call unchanged and opens a span around it (inert unless the
// traced run enabled the recorder), so the layers are timed from outside
// and the program under test is the same in both modes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/checkpoint_sink.h"
#include "dlsim/record_opener.h"
#include "storage/storage_engine.h"
#include "trace.h"
#include "util/crc32c.h"

namespace suite {

/// A tier's engine. ReadZeroCopy is forwarded, not left to the base
/// class's copying fallback, so the zero-copy lane still lends pages.
class TimedEngine final : public monarch::storage::StorageEngine {
 public:
  enum class Tier { kPfs, kLocal };

  TimedEngine(monarch::storage::StorageEnginePtr inner, Tier tier)
      : inner_(std::move(inner)),
        read_(tier == Tier::kPfs ? Layer::kPfsRead : Layer::kLocalRead),
        write_(tier == Tier::kPfs ? Layer::kPfsWrite : Layer::kLocalWrite),
        meta_(tier == Tier::kPfs ? Layer::kPfsMeta : Layer::kLocalMeta) {}

  monarch::Result<std::size_t> Read(std::string_view path,
                                    std::uint64_t offset,
                                    std::span<std::byte> dst) override {
    const ScopedSpan span(read_);
    return inner_->Read(path, offset, dst);
  }
  monarch::Result<monarch::storage::ReadView> ReadZeroCopy(
      std::string_view path, std::uint64_t offset,
      std::uint64_t max_bytes) override {
    const ScopedSpan span(read_);
    return inner_->ReadZeroCopy(path, offset, max_bytes);
  }
  monarch::Status Write(const std::string& path,
                        std::span<const std::byte> data) override {
    const ScopedSpan span(write_);
    return inner_->Write(path, data);
  }
  monarch::Status WriteAt(const std::string& path, std::uint64_t offset,
                          std::span<const std::byte> data) override {
    const ScopedSpan span(write_);
    return inner_->WriteAt(path, offset, data);
  }
  monarch::Status Delete(const std::string& path) override {
    const ScopedSpan span(meta_);
    return inner_->Delete(path);
  }
  monarch::Result<std::uint64_t> FileSize(const std::string& path) override {
    const ScopedSpan span(meta_);
    return inner_->FileSize(path);
  }
  monarch::Result<bool> Exists(const std::string& path) override {
    const ScopedSpan span(meta_);
    return inner_->Exists(path);
  }
  monarch::Result<std::vector<monarch::storage::FileStat>> ListFiles(
      const std::string& dir) override {
    const ScopedSpan span(meta_);
    return inner_->ListFiles(dir);
  }
  monarch::storage::IoStats& Stats() override { return inner_->Stats(); }
  [[nodiscard]] std::string Name() const override { return inner_->Name(); }

 private:
  monarch::storage::StorageEnginePtr inner_;
  const Layer read_;
  const Layer write_;
  const Layer meta_;
};

/// The byte source a reader thread pulls a record file through: each
/// ReadAt is one Monarch::Read, the `core.read` span.
class TimedSource final : public monarch::tfrecord::RandomAccessSource {
 public:
  explicit TimedSource(monarch::tfrecord::RandomAccessSourcePtr inner)
      : inner_(std::move(inner)) {}

  monarch::Result<std::size_t> ReadAt(std::uint64_t offset,
                                      std::span<std::byte> dst) override {
    const ScopedSpan span(Layer::kCoreRead);
    return inner_->ReadAt(offset, dst);
  }
  monarch::Result<std::uint64_t> Size() override { return inner_->Size(); }
  [[nodiscard]] std::string Name() const override { return inner_->Name(); }

 private:
  monarch::tfrecord::RandomAccessSourcePtr inner_;
};

/// Wraps the MonarchOpener; forwards every hook so prefetch hints and
/// run schedules still reach the library.
class TimedOpener final : public monarch::dlsim::RecordFileOpener {
 public:
  explicit TimedOpener(monarch::dlsim::RecordFileOpenerPtr inner)
      : inner_(std::move(inner)) {}

  monarch::Result<monarch::tfrecord::RandomAccessSourcePtr> Open(
      const std::string& path) override {
    auto source = inner_->Open(path);
    if (!source.ok()) return source.status();
    return monarch::tfrecord::RandomAccessSourcePtr(
        std::make_unique<TimedSource>(std::move(source).value()));
  }
  void OnEpochStart(int epoch) override { inner_->OnEpochStart(epoch); }
  void OnEpochOrder(const std::vector<std::string>& order) override {
    inner_->OnEpochOrder(order);
  }
  void OnRunSchedule(
      const std::vector<std::vector<std::string>>& epochs) override {
    inner_->OnRunSchedule(epochs);
  }
  [[nodiscard]] monarch::core::ReadRing* read_ring() override {
    return inner_->read_ring();
  }
  [[nodiscard]] std::string Name() const override { return inner_->Name(); }

 private:
  monarch::dlsim::RecordFileOpenerPtr inner_;
};

/// Wraps the CheckpointManager. Records each saved checkpoint's CRC32C
/// (computed before the timed call) so the workload can check every
/// retained checkpoint restores byte-identical.
class TimedSink final : public monarch::core::CheckpointSink {
 public:
  explicit TimedSink(monarch::core::CheckpointSink& inner) : inner_(inner) {}

  monarch::Status Save(const std::string& name,
                       std::span<const std::byte> data) override {
    const std::uint32_t crc = monarch::Crc32c(data);
    {
      std::lock_guard<std::mutex> lock(mu_);
      crcs_[name] = crc;
    }
    const ScopedSpan span(Layer::kCkptSave);
    return inner_.Save(name, data);
  }
  monarch::Result<std::vector<std::byte>> Restore(
      const std::string& name) override {
    const ScopedSpan span(Layer::kCkptRestore);
    return inner_.Restore(name);
  }
  monarch::Status Flush() override {
    const ScopedSpan span(Layer::kCkptFlush);
    return inner_.Flush();
  }

  /// CRC recorded at Save, or nullopt for a name never saved.
  [[nodiscard]] std::optional<std::uint32_t> SavedCrc(
      const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = crcs_.find(name);
    if (it == crcs_.end()) return std::nullopt;
    return it->second;
  }

 private:
  monarch::core::CheckpointSink& inner_;
  mutable std::mutex mu_;
  std::map<std::string, std::uint32_t> crcs_;  ///< under mu_
};

}  // namespace suite

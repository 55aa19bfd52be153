// GateEngine: a test storage engine that holds one file's first write —
// or its first read — until released (shared by the staging-pipeline,
// deposit, chunked-read and peer suites), and GateRelease, the scope
// guard that releases it when a test ends early.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/memory_engine.h"
#include "storage/storage_engine.h"

namespace monarch::testing {

/// Engine wrapper (over a fresh memory engine, or `inner`) that records
/// the order files are first written in and can block the copy of one
/// chosen file until released — the lever the staging tests use to hold
/// a worker mid-copy while the queues, or the reads joining that copy,
/// pile up behind it. With `gate_reads` it holds the file's first read
/// instead (a read-ahead mid-fetch), and lets every write through.
class GateEngine : public storage::StorageEngine {
 public:
  explicit GateEngine(std::string block_path,
                      storage::StorageEnginePtr inner = nullptr,
                      bool gate_reads = false)
      : inner_(inner ? std::move(inner)
                     : std::make_shared<storage::MemoryEngine>("gated")),
        block_path_(std::move(block_path)),
        gate_reads_(gate_reads) {}

  ~GateEngine() override { ReleaseBlocked(); }

  /// Blocks until the gated file's copy has started (and parked itself).
  void AwaitBlocked() {
    std::unique_lock lock(mu_);
    started_cv_.wait(lock, [this] { return blocked_; });
  }

  void ReleaseBlocked() {
    {
      std::lock_guard lock(mu_);
      released_ = true;
    }
    release_cv_.notify_all();
  }

  [[nodiscard]] std::vector<std::string> write_order() const {
    std::lock_guard lock(mu_);
    return order_;
  }

  Result<std::size_t> Read(std::string_view path, std::uint64_t offset,
                           std::span<std::byte> dst) override {
    if (gate_reads_) MaybeBlock(path);
    return inner_->Read(path, offset, dst);
  }
  Status Write(const std::string& path,
               std::span<const std::byte> data) override {
    RecordAndMaybeBlock(path);
    return inner_->Write(path, data);
  }
  Status WriteAt(const std::string& path, std::uint64_t offset,
                 std::span<const std::byte> data) override {
    if (offset == 0) RecordAndMaybeBlock(path);
    return inner_->WriteAt(path, offset, data);
  }
  Status Delete(const std::string& path) override {
    return inner_->Delete(path);
  }
  Result<std::uint64_t> FileSize(const std::string& path) override {
    return inner_->FileSize(path);
  }
  Result<bool> Exists(const std::string& path) override {
    return inner_->Exists(path);
  }
  Result<std::vector<storage::FileStat>> ListFiles(
      const std::string& dir) override {
    return inner_->ListFiles(dir);
  }
  storage::IoStats& Stats() override { return inner_->Stats(); }
  [[nodiscard]] std::string Name() const override { return "gate"; }

 private:
  void RecordAndMaybeBlock(const std::string& path) {
    {
      std::lock_guard lock(mu_);
      order_.push_back(path);
    }
    if (!gate_reads_) MaybeBlock(path);
  }

  void MaybeBlock(std::string_view path) {
    std::unique_lock lock(mu_);
    if (path == block_path_ && !released_) {
      blocked_ = true;
      started_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    }
  }

  storage::StorageEnginePtr inner_;
  const std::string block_path_;
  const bool gate_reads_;
  mutable std::mutex mu_;
  std::condition_variable started_cv_;
  std::condition_variable release_cv_;
  std::vector<std::string> order_;
  bool blocked_ = false;
  bool released_ = false;
};

/// Releases the gate `gate` holds, if any, when it goes out of scope.
/// Declare it after the Monarch whose staging the gate holds: a test that
/// ends early (a failed ASSERT) then frees the parked write before
/// ~Monarch drains the staging queue behind it, and fails instead of
/// hanging.
class GateRelease {
 public:
  explicit GateRelease(const std::shared_ptr<GateEngine>& gate)
      : gate_(gate) {}
  ~GateRelease() {
    if (gate_ != nullptr) gate_->ReleaseBlocked();
  }
  GateRelease(const GateRelease&) = delete;
  GateRelease& operator=(const GateRelease&) = delete;

 private:
  const std::shared_ptr<GateEngine>& gate_;
};

}  // namespace monarch::testing

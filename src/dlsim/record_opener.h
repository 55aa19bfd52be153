// RecordFileOpener: how the simulated framework's reader threads obtain a
// byte source for a record file. Swapping the opener is the framework-
// integration seam — the analogue of the paper's 6-LoC TensorFlow patch:
//
//   vanilla setups  -> EngineOpener   (plain POSIX pread on one backend)
//   vanilla-caching -> CachingOpener  (tf.data Dataset.cache semantics)
//   MONARCH         -> MonarchOpener  (Monarch.read replaces pread)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/storage_engine.h"
#include "tfrecord/random_access_source.h"
#include "util/status.h"

namespace monarch::core {
class ReadRing;
}  // namespace monarch::core

namespace monarch::dlsim {

class RecordFileOpener {
 public:
  virtual ~RecordFileOpener() = default;

  /// Open `path` for the current epoch.
  virtual Result<tfrecord::RandomAccessSourcePtr> Open(
      const std::string& path) = 0;

  /// Epoch boundary notification (1-based epoch about to start). Openers
  /// with epoch-dependent behaviour (cache stage) hook this.
  virtual void OnEpochStart(int /*epoch*/) {}

  /// The loader publishes the epoch's shuffled file order before its
  /// readers start. No store uses it any more (MONARCH's look-ahead reads
  /// the run schedule below); it stays only because the benchmark
  /// suite's timing opener overrides it, and goes with the next change
  /// to that suite.
  virtual void OnEpochOrder(const std::vector<std::string>& /*order*/) {}

  /// The trainer publishes the WHOLE run's access order — one shuffled
  /// file list per epoch, epoch order — before the first epoch starts
  /// (the per-epoch shuffles are seeded, so the full sequence is
  /// computable up front). Openers backed by a schedule-aware store
  /// (MONARCH prefetches and ranks evictions by it) hook this; the
  /// default ignores it.
  virtual void OnRunSchedule(
      const std::vector<std::vector<std::string>>& /*epochs*/) {}

  /// Always null: no store has an async read ring any more (every read
  /// goes through Open()'s source). It stays only because the benchmark
  /// suite's timing opener overrides it, and goes with the next change
  /// to that suite, like OnEpochOrder.
  [[nodiscard]] virtual core::ReadRing* read_ring() { return nullptr; }

  [[nodiscard]] virtual std::string Name() const = 0;
};

using RecordFileOpenerPtr = std::unique_ptr<RecordFileOpener>;

/// Reads every file straight from one storage engine (vanilla-lustre when
/// given the PFS engine, vanilla-local when given the local engine).
class EngineOpener final : public RecordFileOpener {
 public:
  explicit EngineOpener(storage::StorageEnginePtr engine)
      : engine_(std::move(engine)) {}

  Result<tfrecord::RandomAccessSourcePtr> Open(
      const std::string& path) override {
    return tfrecord::RandomAccessSourcePtr(
        std::make_unique<tfrecord::EngineSource>(engine_, path));
  }

  [[nodiscard]] std::string Name() const override {
    return "engine:" + engine_->Name();
  }

 private:
  storage::StorageEnginePtr engine_;
};

}  // namespace monarch::dlsim

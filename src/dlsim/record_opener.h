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
  /// readers start. Openers backed by a prefetching store (MONARCH's
  /// look-ahead cursor) hook this; the default ignores it.
  virtual void OnEpochOrder(const std::vector<std::string>& /*order*/) {}

  /// The trainer publishes the WHOLE run's access order — one shuffled
  /// file list per epoch, epoch order — before the first epoch starts
  /// (the per-epoch shuffles are seeded, so the full sequence is
  /// computable up front). Openers backed by a schedule-aware store
  /// (MONARCH ranks evictions by it) hook this; the default ignores it.
  virtual void OnRunSchedule(
      const std::vector<std::vector<std::string>>& /*epochs*/) {}

  /// Async submission ring behind this opener's store, or nullptr when
  /// the backend has none. A loader with `use_read_ring` set pumps
  /// whole-file lease reads through it instead of calling Open().
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

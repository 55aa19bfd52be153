// CheckpointManager: the write-back checkpoint tier (ISSUE 5).
//
// MONARCH's read path flees the contended PFS; the trainer's periodic
// checkpoint burst should too. Save() lands the checkpoint on the
// fastest local tier with room (quota-reserved through the same
// PlacementPolicy the read path stages with, so checkpoints and staged
// dataset files genuinely compete for tier capacity), commits it through
// the crash-consistent manifest journal (ckpt/manifest.h), and returns —
// the training step resumes after a local write, not a PFS round trip.
// A background drain lane then pushes the bytes to the PFS:
//
//   Save -> [local, committed] -> drain -> [durable on PFS]
//                                           |-> local copy evictable
//                                           |-> keep-last-K pruning
//
// The drain lane reuses the staging pipeline's machinery: chunked copies
// through a bounded util::BufferPool, the [resilience] retry/breaker
// envelope (an internal writable StorageDriver over the PFS engine gives
// drains the same bounded-backoff retries and circuit breaker as reads),
// and, with a QoS broker installed, a drain tenant whose weighted share
// keeps a draining checkpoint from starving demand reads and staging of
// the shared PFS. Durability is mandatory:
// a drain that exhausts its driver-level retries parks with capped
// backoff and tries again until it succeeds or the manager shuts down —
// the manifest lets an interrupted drain resume across a crash.
//
// Restore() serves from the CRC-verified local copy when present and
// falls back to the (equally verified) PFS copy otherwise. A corrupt
// local copy is quarantined and the read degrades to the PFS — the same
// ladder shape as DESIGN.md §4.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/manifest.h"
#include "core/checkpoint_sink.h"
#include "core/placement_policy.h"
#include "core/resilience.h"
#include "core/storage_hierarchy.h"
#include "obs/metrics_registry.h"
#include "qos/bandwidth_broker.h"
#include "qos/tenant.h"
#include "util/buffer_pool.h"

namespace monarch::ckpt {

/// Lifecycle of one committed checkpoint (docs/OBSERVABILITY.md,
/// DESIGN.md "Checkpoint write-back").
enum class CkptState {
  kLocal,     ///< committed on a cache tier, drain pending
  kDraining,  ///< drain to the PFS in progress
  kDurable,   ///< PFS copy complete and CRC-verified
};

[[nodiscard]] const char* CkptStateName(CkptState state) noexcept;

struct CheckpointOptions {
  /// Namespace prefix for checkpoint data and the manifest on every tier.
  std::string dir = "ckpt";

  /// Retain only the newest K checkpoints; older ones are pruned once
  /// durable. 0 keeps everything.
  int keep_last = 0;

  int drain_threads = 1;

  /// Chunk size and total buffer budget of the drain lane's copies.
  std::size_t chunk_bytes = std::size_t{1} << 22;          // 4 MiB
  std::size_t buffer_bytes = std::size_t{1} << 24;         // 16 MiB

  /// Read the local copy back and CRC-verify before committing Save —
  /// the write-path twin of [resilience] verify_staged_writes.
  bool verify_local_writes = true;

  /// Read the PFS copy back and CRC-verify before declaring it durable.
  bool verify_drained_writes = true;

  /// CRC-verify the copy served by Restore.
  bool verify_on_restore = true;

  /// Retry/breaker envelope of the internal PFS drain driver.
  core::RetryPolicy retry;
  core::TierHealthOptions health;

  /// Multi-tenant QoS: the drain lane's identity. Drain workers install
  /// this tenant, so with a broker every drained byte is charged to the
  /// drain class — demand tenants keep their shares even while a
  /// checkpoint floods toward the PFS.
  qos::TenantContext tenant{/*tenant_id=*/-1, "ckpt-drain",
                            qos::IoClass::kDrain, /*weight=*/1.0,
                            /*low_retention=*/false};
  /// Broker charged by the internal PFS drain driver; null = none.
  qos::BandwidthBrokerPtr qos_broker;
};

class CheckpointManager final : public core::CheckpointSink {
 public:
  struct Stats {
    std::uint64_t saves = 0;
    std::uint64_t save_bytes = 0;
    std::uint64_t restores = 0;
    std::uint64_t restores_local = 0;
    std::uint64_t restores_pfs = 0;
    std::uint64_t drains_completed = 0;
    std::uint64_t drain_bytes = 0;       ///< bytes made durable this process
    std::uint64_t drain_retries = 0;     ///< parked/backed-off drain attempts
    std::uint64_t local_evictions = 0;   ///< durable local copies dropped
    std::uint64_t pruned = 0;            ///< checkpoints retired (keep-last-K)
    std::uint64_t direct_pfs_writes = 0; ///< Saves that bypassed the tiers
    std::uint64_t local_quarantined = 0; ///< corrupt local copies deleted
    std::uint64_t resumed_drains = 0;    ///< drains re-queued by recovery
    std::uint64_t dropped_orphans = 0;   ///< uncommitted temp copies removed
    std::uint64_t torn_tail_bytes = 0;   ///< journal bytes dropped at replay
    std::uint64_t pending_drains = 0;    ///< committed but not yet durable
    std::uint64_t local_bytes = 0;       ///< quota held by live local copies
  };

  /// One manifest entry as reported by ManifestView().
  struct EntryView {
    std::uint64_t gen = 0;
    std::string name;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
    int level = -1;             ///< -1 when no local copy exists
    CkptState state = CkptState::kLocal;
    bool local_present = false;
  };

  /// `hierarchy` must outlive the manager. Recovery runs inline: the
  /// manifest journal (on the fastest writable level) is replayed, torn
  /// tails dropped, orphan temp copies deleted, quota re-reserved for
  /// live local copies, and interrupted drains re-queued. `policy`
  /// defaults to first-fit (the paper's placement order).
  CheckpointManager(core::StorageHierarchy& hierarchy,
                    CheckpointOptions options,
                    core::PlacementPolicyPtr policy = nullptr);
  ~CheckpointManager() override;

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  Status Save(const std::string& name,
              std::span<const std::byte> data) override;
  Result<std::vector<std::byte>> Restore(const std::string& name) override;

  /// Block until every committed checkpoint is durable on the PFS.
  /// Fails only when the manager shuts down while waiting.
  Status Flush() override;

  /// Stop the drain lane. Pending drains stay journalled and resume when
  /// a new manager recovers over the same hierarchy (the crash tests'
  /// "kill" primitive — destruction without Flush).
  void Shutdown();

  [[nodiscard]] Stats GetStats() const;

  /// Manifest snapshot, oldest first; pruned entries excluded.
  [[nodiscard]] std::vector<EntryView> ManifestView() const;

  [[nodiscard]] const CheckpointOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Entry {
    std::uint64_t gen = 0;
    std::string name;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
    int level = -1;
    CkptState state = CkptState::kLocal;
    bool local_present = false;
    /// Whether the local copy holds a quota reservation (recovery keeps
    /// an un-reservable copy alive when it is the only one with the data).
    bool quota_held = false;
    bool pruned = false;
  };

  [[nodiscard]] std::string LocalPath(const std::string& name,
                                      std::uint64_t gen) const;
  [[nodiscard]] std::string PfsPath(const std::string& name,
                                    std::uint64_t gen) const;

  void Recover();
  void DrainLoop();
  /// One full chunked local->PFS copy + verify; false on failure (the
  /// caller parks and retries).
  bool DrainOnce(const Entry& snapshot);
  /// Evict the oldest durable local copy to make room; false when none.
  bool EvictOneLocalLocked();
  void ApplyRetentionLocked();
  /// Chunked CRC32C of `path` on `driver` (pool-buffered).
  Result<std::uint32_t> ChecksumFile(core::StorageDriver& driver,
                                     const std::string& path,
                                     std::uint64_t bytes);
  Status WriteDirectToPfs(const Entry& entry,
                          std::span<const std::byte> data);

  core::StorageHierarchy& hierarchy_;
  CheckpointOptions options_;
  core::PlacementPolicyPtr policy_;

  /// Internal writable driver over the PFS engine: drains get the same
  /// retry/breaker ladder as reads (the hierarchy's own PFS driver is
  /// read-only by construction).
  std::unique_ptr<core::StorageDriver> pfs_writer_;
  std::unique_ptr<ManifestJournal> journal_;
  BufferPool pool_;

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;   ///< wakes drain workers
  std::condition_variable flush_cv_;   ///< wakes Flush waiters
  std::map<std::uint64_t, Entry> entries_;  ///< by gen (ordered = oldest first)
  std::deque<std::uint64_t> drain_queue_;
  std::uint64_t next_gen_ = 1;
  std::uint64_t pending_drains_ = 0;
  bool stop_ = false;

  Stats stats_;  ///< guarded by mu_ (counters mirrored process-wide below)

  std::vector<std::thread> drain_workers_;

  // `ckpt.*` instruments (docs/OBSERVABILITY.md §1); process-wide, stable
  // pointers resolved once, following the `storage.retries` pattern.
  obs::Counter* saves_ = nullptr;
  obs::Counter* save_bytes_ = nullptr;
  obs::Histogram* save_stall_us_ = nullptr;
  obs::Counter* restores_ = nullptr;
  obs::Counter* drains_ = nullptr;
  obs::Counter* drain_bytes_counter_ = nullptr;
  obs::Counter* drain_retries_ = nullptr;
  obs::Counter* local_evictions_ = nullptr;
  obs::Counter* pruned_counter_ = nullptr;
  obs::Counter* direct_pfs_writes_ = nullptr;
  obs::Counter* resumed_drains_ = nullptr;
  obs::Gauge* pending_drains_gauge_ = nullptr;
};

}  // namespace monarch::ckpt

// FileInfo: the per-file entry of MONARCH's virtual namespace (§III-A,
// "metadata container"). Tracks the file's size and which storage level
// currently serves it, plus the placement state machine that makes the
// first-epoch staging race-free:
//
//   kPfsOnly --(first read seen)--> kFetching --(copy done)--> kPlaced
//        ^                              |
//        +------(copy failed)----------+
//
// The kPfsOnly->kFetching transition is a CAS, so concurrent reads of the
// same file schedule exactly one background copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "pack/chunk_map.h"

namespace monarch::core {

enum class PlacementState : int {
  kPfsOnly = 0,   ///< only the PFS copy exists
  kFetching = 1,  ///< a background copy to an upper tier is in flight
  kPlaced = 2,    ///< an upper-tier copy exists and serves reads
  kUnplaceable = 3, ///< no upper tier had room; reads stay on the PFS
};

struct FileInfo {
  FileInfo(std::string name_in, std::uint64_t size_in, int pfs_level)
      : name(std::move(name_in)), size(size_in), level(pfs_level) {}

  const std::string name;       ///< hierarchy-relative path
  const std::uint64_t size;     ///< bytes (fixed for the job's lifetime)

  /// Storage level whose driver currently serves reads of this file.
  /// Starts at the PFS level; updated once placement completes (⑤ in the
  /// paper's operation flow).
  std::atomic<int> level;

  std::atomic<PlacementState> state{PlacementState::kPfsOnly};

  /// Monotonic access stamp, maintained for the eviction-policy ablation
  /// (the paper's design deliberately never evicts; §III-A).
  std::atomic<std::uint64_t> last_access{0};

  /// CRC32C of the staged tier copy, recorded by the placement handler
  /// when the copy is written; kNoStagedCrc while no (verified) copy
  /// exists. Stored widened to 64 bits so the sentinel cannot collide
  /// with a real checksum.
  static constexpr std::uint64_t kNoStagedCrc = ~0ull;
  std::atomic<std::uint64_t> staged_crc{kNoStagedCrc};

  /// Failed staging attempts so far; once this reaches the configured
  /// cap the placement handler marks the file kUnplaceable so a broken
  /// file cannot hammer the staging pool on every access.
  std::atomic<int> fetch_failures{0};

  /// Set when look-ahead (not a demand read) claimed this file's
  /// fetch. The read path exchanges it back to false on the first demand
  /// read served from a cache tier — that exchange is one prefetch hit.
  std::atomic<bool> prefetched{false};

  /// In-flight demand reads and open visits (Monarch::PinVisit) of this
  /// file. A nonzero count pins the staged copy against eviction: the
  /// evictor claims the file, sees the pin, and reverts — so an active
  /// read never loses its tier copy mid-flight. Readers that pin after the evictor's check fall back to
  /// the PFS exactly like the pre-pinning eviction race.
  std::atomic<int> read_pins{0};

  /// Latched when a retryable no-space rejection bounced this file (an
  /// eviction-capable policy refused to make room). The read path skips
  /// re-claiming a latched file until the next offset-0 read re-arms it:
  /// chunked readers would otherwise re-enqueue a doomed demand staging
  /// per chunk and starve the prefetch lane behind the demand lane's
  /// priority.
  std::atomic<bool> stage_refused{false};

  /// True while a whole-file copy of this file can be joined: a
  /// demand-lane task for it is queued, or any copy of it is running.
  /// A read that would go to the PFS waits for it to clear and then
  /// serves from the copy, so each file crosses the PFS once. The
  /// placement handler sets it and clears it (with a wake-up) on every
  /// exit of the copy and on every path that drops the task unrun. A
  /// queued look-ahead prefetch is never joinable: its worker may be the
  /// very one the reader is queued behind.
  std::atomic<bool> joinable{false};

  /// Scan-resistance marking (ISSUE 10): set when the staged copy was
  /// placed on behalf of a low-retention tenant (a full-scan data-prep
  /// job). Low-retention copies are fair game for any evictor, but a
  /// low-retention requester may ONLY evict other low-retention copies —
  /// a scan can never push out a trainer's working set.
  std::atomic<bool> low_retention{false};

  /// Chunk-granularity residency (ISSUE 9), lazily allocated by the
  /// first touch of a file under pack mode and immutable-as-a-pointer
  /// afterwards: the read hot path does one acquire load, never an
  /// allocation, and whole-file mode never allocates it at all. Owned
  /// by this FileInfo (freed in the destructor).
  std::atomic<pack::ChunkMap*> chunks{nullptr};

  ~FileInfo() { delete chunks.load(std::memory_order_acquire); }

  /// The chunk map, or nullptr while the file has never been touched
  /// under pack mode.
  [[nodiscard]] pack::ChunkMap* chunk_map() const noexcept {
    return chunks.load(std::memory_order_acquire);
  }

  /// Get-or-create the chunk map (CAS; the loser frees its copy). Only
  /// the pack-mode read path calls this — once per file, not per read.
  pack::ChunkMap* EnsureChunkMap(std::uint64_t chunk_bytes) {
    pack::ChunkMap* existing = chunks.load(std::memory_order_acquire);
    if (existing != nullptr) return existing;
    auto* fresh = new pack::ChunkMap(size, chunk_bytes);
    if (chunks.compare_exchange_strong(existing, fresh,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return fresh;
    }
    delete fresh;
    return existing;
  }

  /// One-way CAS used by the read path to claim the background fetch.
  bool TryBeginFetch() noexcept {
    PlacementState expected = PlacementState::kPfsOnly;
    return state.compare_exchange_strong(expected, PlacementState::kFetching,
                                         std::memory_order_acq_rel);
  }

  void FinishFetch(int new_level) noexcept {
    level.store(new_level, std::memory_order_release);
    state.store(PlacementState::kPlaced, std::memory_order_release);
  }

  void AbortFetch(bool permanently) noexcept {
    staged_crc.store(kNoStagedCrc, std::memory_order_release);
    state.store(permanently ? PlacementState::kUnplaceable
                            : PlacementState::kPfsOnly,
                std::memory_order_release);
  }

  void BeginJoinable() noexcept {
    joinable.store(true, std::memory_order_release);
  }

  void EndJoinable() noexcept {
    joinable.store(false, std::memory_order_release);
    joinable.notify_all();
  }

  /// Block until no joinable copy is in flight (an event wait: no sleep,
  /// no poll, no timeout). Returns false when there was none to join.
  bool AwaitJoinable() const noexcept {
    if (!joinable.load(std::memory_order_acquire)) return false;
    joinable.wait(true, std::memory_order_acquire);
    return true;
  }

  [[nodiscard]] bool HasStagedCrc() const noexcept {
    return staged_crc.load(std::memory_order_acquire) != kNoStagedCrc;
  }
};

using FileInfoPtr = std::shared_ptr<FileInfo>;

}  // namespace monarch::core

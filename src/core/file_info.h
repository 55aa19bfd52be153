// FileInfo: the per-file entry of MONARCH's virtual namespace (§III-A,
// "metadata container"). Tracks the file's size, its chunk map — which
// chunks have a staged copy on a cache tier, and which a staging task has
// claimed — and a placement state that summarises the map for the
// eviction policies:
//
//   kPfsOnly --(first run published)--> kPlaced
//      ^                                   |
//      +---------(last run dropped)--------+
//   either --(parked: every run dropped)--> kUnplaceable
//
// Claims are per chunk (ChunkMap::TryClaim, a CAS), so concurrent reads
// of the same cold chunk schedule exactly one background copy. The
// placement handler makes every transition under the chunk map's
// placement mutex; a parked file (failure cap, quarantine, no room) is
// never claimed again.
//
// Deposits: a staged run whose copy has a reader coming keeps its
// verified bytes here (PlacementHandler::StageRun), so that reader is
// served from memory instead of reading the run back from its tier. A
// deposit goes at the run's last byte, when a later visit begins, and
// with the run itself (DropRunLocked). A lent view keeps its bytes alive.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pack/chunk_map.h"

namespace monarch::core {

enum class PlacementState : int {
  kPfsOnly = 0,      ///< no chunk is staged
  kPlaced = 1,       ///< some chunk is staged on an upper tier
  kUnplaceable = 2,  ///< parked: reads stay on the PFS for good
};

/// One staged run's verified bytes (the run object's bytes, identity
/// codec only), held for the run's next reader.
struct Deposit {
  std::uint32_t run_start = 0;  ///< first chunk of the run
  std::span<const std::byte> bytes;
  /// Owns `bytes` and their share of the staging-memory budget.
  std::shared_ptr<const void> keepalive;
  /// Set once a read was served from it: a later visit drops it.
  bool served = false;
};

struct FileInfo {
  FileInfo(std::string name_in, std::uint64_t size_in, int pfs_level)
      : name(std::move(name_in)), size(size_in), level(pfs_level) {}

  const std::string name;       ///< hierarchy-relative path
  const std::uint64_t size;     ///< bytes (fixed for the job's lifetime)

  /// Storage level holding this file's staged chunks while kPlaced, the
  /// PFS level otherwise (⑤ in the paper's operation flow). Reads route
  /// by the chunk map; this is the summary operators and hints see.
  std::atomic<int> level;

  std::atomic<PlacementState> state{PlacementState::kPfsOnly};

  /// Monotonic access stamp, maintained for the eviction-policy ablation
  /// (the paper's design deliberately never evicts; §III-A).
  std::atomic<std::uint64_t> last_access{0};

  /// Failed staging attempts and quarantined runs so far; once this
  /// reaches the configured cap the placement handler parks the file
  /// (kUnplaceable) so a broken file cannot hammer the staging pool on
  /// every access.
  std::atomic<int> fetch_failures{0};

  /// Set when look-ahead or read-ahead (not a demand read) claimed this
  /// file's chunks. The read path exchanges it back to false on the first demand
  /// read served from a cache tier — that exchange is one prefetch hit.
  std::atomic<bool> prefetched{false};

  /// In-flight demand reads and open visits (Monarch::PinVisit) of this
  /// file. A nonzero count pins the staged runs against eviction: the
  /// evictor sees the pin and picks another victim — so an active read
  /// never loses its tier copy mid-flight. Readers that pin after the
  /// evictor's check fall back to the PFS exactly like the pre-pinning
  /// eviction race.
  std::atomic<int> read_pins{0};

  /// Readers still coming for this file's bytes: open visits
  /// (Monarch::PinVisit) and reads waiting to join its copy
  /// (AwaitJoinable). A demand copy published while any is counted keeps
  /// a deposit for them; a read that already has its bytes is not one.
  std::atomic<int> readers_coming{0};

  /// Latched when a retryable no-space rejection bounced this file (an
  /// eviction-capable policy refused to make room). The read path skips
  /// re-claiming a latched file until the next offset-0 read re-arms it:
  /// chunked readers would otherwise re-enqueue a doomed demand staging
  /// per chunk and starve the prefetch lane behind the demand lane's
  /// priority.
  std::atomic<bool> stage_refused{false};

  /// True while a copy of this file can be joined: a demand-lane task
  /// for it is queued, or any task of it is running. A read whose chunks
  /// are claimed waits for it to clear and then serves from the copy, so
  /// each chunk crosses the PFS once. The
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

  /// Chunk residency, lazily allocated by the first read or
  /// staging claim of the file and immutable-as-a-pointer afterwards: the
  /// read hot path does one acquire load, never an allocation. Owned by
  /// this FileInfo (freed in the destructor).
  std::atomic<pack::ChunkMap*> chunks{nullptr};

  ~FileInfo() { delete chunks.load(std::memory_order_acquire); }

  /// The chunk map, or nullptr while the file has never been read or
  /// claimed.
  [[nodiscard]] pack::ChunkMap* chunk_map() const noexcept {
    return chunks.load(std::memory_order_acquire);
  }

  /// Get-or-create the chunk map (CAS; the loser frees its copy). Every
  /// caller passes the staging handler's chunk size.
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

  /// The first run was published on `new_level`.
  void FinishFetch(int new_level) noexcept {
    level.store(new_level, std::memory_order_release);
    state.store(PlacementState::kPlaced, std::memory_order_release);
  }

  /// Nothing is staged any more: retryable, or parked when `permanently`.
  void AbortFetch(bool permanently) noexcept {
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
  /// no poll, no timeout), counted in readers_coming meanwhile. Returns
  /// false when there was none to join.
  bool AwaitJoinable() noexcept {
    readers_coming.fetch_add(1, std::memory_order_acq_rel);
    const bool joined = joinable.load(std::memory_order_acquire);
    if (joined) joinable.wait(true, std::memory_order_acquire);
    readers_coming.fetch_sub(1, std::memory_order_acq_rel);
    return joined;
  }

  /// Whether any deposit is held: the read path's lock-free check.
  [[nodiscard]] bool HasDeposits() const noexcept {
    return deposit_count_.load(std::memory_order_acquire) > 0;
  }

  /// Hold `deposit` for its run's next reader. A run is published once
  /// between drops, and a drop takes its deposit, so a run holds at most
  /// one.
  void AddDeposit(Deposit deposit) {
    std::lock_guard lock(deposit_mu_);
    deposits_.push_back(std::move(deposit));
    deposit_count_.fetch_add(1, std::memory_order_release);
  }

  /// The deposit of the run starting at chunk `run_start`, marked
  /// served, for a read of its bytes up to `read_end`; an empty one (null
  /// keepalive) when there is none. A read that reaches the run's last
  /// byte takes it: the file lets go, and the returned copy keeps the
  /// bytes alive for the caller.
  Deposit ServeDeposit(std::uint32_t run_start, std::uint64_t read_end) {
    std::lock_guard lock(deposit_mu_);
    for (auto it = deposits_.begin(); it != deposits_.end(); ++it) {
      if (it->run_start != run_start) continue;
      it->served = true;
      if (read_end < it->bytes.size()) return *it;
      Deposit taken = std::move(*it);
      deposits_.erase(it);
      deposit_count_.fetch_sub(1, std::memory_order_release);
      return taken;
    }
    return {};
  }

  /// Drop the deposit of the run starting at chunk `run_start`, if any.
  void DropDeposit(std::uint32_t run_start) {
    if (HasDeposits()) (void)ServeDeposit(run_start, UINT64_MAX);
  }

  /// Drop every deposit — or, with `served_only` (a new visit begins),
  /// those an earlier visit already read from.
  void DropDeposits(bool served_only = false) {
    std::vector<Deposit> dropped;
    {
      std::lock_guard lock(deposit_mu_);
      const auto keep = std::stable_partition(
          deposits_.begin(), deposits_.end(),
          [served_only](const Deposit& d) { return served_only && !d.served; });
      dropped.assign(std::make_move_iterator(keep),
                     std::make_move_iterator(deposits_.end()));
      deposits_.erase(keep, deposits_.end());
      deposit_count_.fetch_sub(static_cast<std::uint32_t>(dropped.size()),
                               std::memory_order_release);
    }  // the dropped bytes are freed outside the lock
  }

 private:
  std::atomic<std::uint32_t> deposit_count_{0};
  std::mutex deposit_mu_;
  std::vector<Deposit> deposits_;  ///< guarded by deposit_mu_
};

using FileInfoPtr = std::shared_ptr<FileInfo>;

}  // namespace monarch::core

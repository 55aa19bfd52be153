// FileInfo: the per-file entry of MONARCH's virtual namespace (§III-A,
// "metadata container"). Tracks the file's size, its chunk map — which
// chunks have a staged copy on a cache tier, and which a staging task has
// claimed — and one state word of lifecycle bits. A file is placed while
// its chunk map holds a resident run (Placed); every other lifecycle fact
// is a bit of the word, set and cleared through one function (Transition)
// and waited on through one (Await). DESIGN §3 lists every bit: who sets
// it, who clears it, under which lock, and who waits on it.
//
// Claims are per chunk (ChunkMap::TryClaim, a CAS), so concurrent reads
// of the same cold chunk schedule exactly one background copy; a parked
// file (failure cap, quarantine, no room) is never claimed again.
//
// Deposits: a run's verified bytes held in memory for the run's next
// reader — a staged run whose copy has a reader coming
// (PlacementHandler::StageRun), a run the peer rung fetched whole at its
// first slice (Monarch::ServeChunks), or a scheduled run look-ahead read
// ahead of its reader from a local tier or a peer
// (PlacementHandler::ReadAhead) — so that reader is served from memory
// instead of the tier or the fabric. A deposit goes at the run's last
// byte, when a later visit begins once read from, and with the run
// itself (DropRunLocked). A lent view keeps its bytes alive.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pack/chunk_map.h"
#include "storage/storage_engine.h"

namespace monarch::core {

/// One run's verified bytes (the run object's bytes, identity codec
/// only), held for the run's next reader.
struct Deposit {
  std::uint32_t run_start = 0;  ///< first chunk of the run
  /// Whose keepalive owns the bytes and their share of the
  /// staging-memory budget (PlacementHandler::Held).
  storage::ReadView bytes;
  /// Set once a read was served from it: a later visit drops it.
  bool served = false;
  /// Made ahead of its reader by look-ahead (a look-ahead staging or a
  /// read-ahead): its first serve is a prefetch hit, and a drop before
  /// any serve is counted as unread.
  bool ahead = false;
};

struct FileInfo {
  FileInfo(std::string name_in, std::uint64_t size_in)
      : name(std::move(name_in)), size(size_in) {}

  const std::string name;       ///< hierarchy-relative path
  const std::uint64_t size;     ///< bytes (fixed for the job's lifetime)

  /// The state word's bits (DESIGN §3 has the transition table).
  static constexpr std::uint32_t kParked = 1u << 0;     ///< never clears
  static constexpr std::uint32_t kJoinable = 1u << 1;   ///< a copy to join
  static constexpr std::uint32_t kReadingAhead = 1u << 2;
  static constexpr std::uint32_t kLookahead = 1u << 3;  ///< look-ahead origin
  static constexpr std::uint32_t kStageRefused = 1u << 4;
  /// The bits a reader waits on (Await): clearing one wakes it.
  static constexpr std::uint32_t kWaitBits = kJoinable | kReadingAhead;

  /// Monotonic access stamp, maintained for the eviction-policy ablation
  /// (the paper's design deliberately never evicts; §III-A).
  std::atomic<std::uint64_t> last_access{0};

  /// Failed staging attempts and quarantined runs so far; once this
  /// reaches the configured cap the placement handler parks the file.
  std::atomic<int> fetch_failures{0};

  /// In-flight demand reads and open visits (Monarch::PinVisit) of this
  /// file. A nonzero count pins the staged runs against eviction: the
  /// evictor sees the pin and picks another victim — so an active read
  /// never loses its tier copy mid-flight. Readers that pin after the
  /// evictor's check fall back to the PFS exactly like the pre-pinning
  /// eviction race.
  std::atomic<int> read_pins{0};

  /// Readers still coming for this file's bytes: open visits
  /// (Monarch::PinVisit) and reads waiting in Await(kJoinable). A
  /// demand copy published while any is counted keeps a deposit for
  /// them; a read that already has its bytes is not one.
  std::atomic<int> readers_coming{0};

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

  /// Whether the chunk map holds a resident run: the file serves (some
  /// of) its bytes from a tier. Published and folded back under the
  /// placement mutex; a parked file holds none.
  [[nodiscard]] bool Placed() const noexcept {
    const pack::ChunkMap* cm = chunk_map();
    return cm != nullptr && cm->ResidentCount() > 0;
  }

  /// Whether any of `bits` is set: one plain load.
  [[nodiscard]] bool Has(std::uint32_t bits) const noexcept {
    return (state_.load(std::memory_order_acquire) & bits) != 0;
  }

  /// Set `set` or clear `clear` (one of the two) as one atomic step of
  /// the word; returns the word before it. Clearing a wait bit that was
  /// set wakes every Await. Debug builds assert the transition is legal:
  /// kParked never clears, and kReadingAhead is set only while clear.
  std::uint32_t Transition(std::uint32_t set,
                           std::uint32_t clear = 0) noexcept {
    assert((clear & kParked) == 0 && (set == 0 || clear == 0));
    const std::uint32_t before =
        set != 0 ? state_.fetch_or(set, std::memory_order_acq_rel)
                 : state_.fetch_and(~clear, std::memory_order_acq_rel);
    assert((set & before & kReadingAhead) == 0);
    if ((before & clear & kWaitBits) != 0) state_.notify_all();
    return before;
  }

  /// Block while any of `bits` (wait bits) is set — an event wait: no
  /// sleep, no poll, no timeout. A copy's joiner (kJoinable) is counted
  /// in readers_coming meanwhile; a read-ahead's is not, as it is bound
  /// for runs already on a tier. Returns false when none was set.
  bool Await(std::uint32_t bits) noexcept {
    assert((bits & ~kWaitBits) == 0);
    const int coming = (bits & kJoinable) != 0 ? 1 : 0;
    readers_coming.fetch_add(coming, std::memory_order_acq_rel);
    std::uint32_t word = state_.load(std::memory_order_acquire);
    const bool waited = (word & bits) != 0;
    while ((word & bits) != 0) {
      state_.wait(word, std::memory_order_acquire);
      word = state_.load(std::memory_order_acquire);
    }
    readers_coming.fetch_sub(coming, std::memory_order_acq_rel);
    return waited;
  }

  /// Whether any deposit is held: the read path's lock-free check.
  [[nodiscard]] bool HasDeposits() const noexcept {
    return deposit_count_.load(std::memory_order_acquire) > 0;
  }

  /// Whether the run starting at chunk `run_start` holds a deposit.
  [[nodiscard]] bool HoldsDeposit(std::uint32_t run_start) {
    if (!HasDeposits()) return false;
    std::lock_guard lock(deposit_mu_);
    return std::any_of(
        deposits_.begin(), deposits_.end(),
        [run_start](const Deposit& d) { return d.run_start == run_start; });
  }

  /// Hold `deposit` for its run's next reader, in place of any deposit
  /// the run already holds: a run holds at most one. Returns 1 when the
  /// replaced deposit was a look-ahead one never read from, else 0.
  std::uint64_t AddDeposit(Deposit deposit) {
    Deposit replaced;
    std::lock_guard lock(deposit_mu_);
    for (Deposit& held : deposits_) {
      if (held.run_start != deposit.run_start) continue;
      replaced = std::exchange(held, std::move(deposit));
      return Unread(replaced);
    }
    deposits_.push_back(std::move(deposit));
    deposit_count_.fetch_add(1, std::memory_order_release);
    return 0;
  }

  /// The deposit of the run starting at chunk `run_start` as it was
  /// before this serve (so `served` tells whether this is its first), for
  /// a read of its bytes up to `read_end`, marking it served; an empty
  /// one (null keepalive) when there is none. A read that reaches the
  /// run's last byte takes it: the file lets go, and the returned copy
  /// keeps the bytes alive for the caller.
  Deposit ServeDeposit(std::uint32_t run_start, std::uint64_t read_end) {
    std::lock_guard lock(deposit_mu_);
    for (auto it = deposits_.begin(); it != deposits_.end(); ++it) {
      if (it->run_start != run_start) continue;
      if (read_end < it->bytes.size()) {
        Deposit before = *it;
        it->served = true;
        return before;
      }
      Deposit taken = std::move(*it);
      deposits_.erase(it);
      deposit_count_.fetch_sub(1, std::memory_order_release);
      return taken;
    }
    return {};
  }

  /// Drop the deposit of the run starting at chunk `run_start`, if any.
  /// Returns 1 when it was a look-ahead deposit never read from, else 0.
  std::uint64_t DropDeposit(std::uint32_t run_start) {
    return HasDeposits() ? Unread(ServeDeposit(run_start, UINT64_MAX)) : 0;
  }

  /// Drop every deposit — or, with `served_only` (a new visit begins),
  /// those an earlier visit already read from. Returns how many of the
  /// dropped were look-ahead deposits never read from.
  std::uint64_t DropDeposits(bool served_only = false) {
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
    return static_cast<std::uint64_t>(
        std::count_if(dropped.begin(), dropped.end(), Unread));
  }

 private:
  static bool Unread(const Deposit& d) noexcept {
    return d.ahead && !d.served;
  }

  std::atomic<std::uint32_t> state_{0};
  std::atomic<std::uint32_t> deposit_count_{0};
  std::mutex deposit_mu_;
  std::vector<Deposit> deposits_;  ///< guarded by deposit_mu_
};

using FileInfoPtr = std::shared_ptr<FileInfo>;

}  // namespace monarch::core

// PlacementHandler: MONARCH's background staging engine (§III-A/B),
// rebuilt as a pipelined copy service behind one fair staging queue.
//
// One staging unit: every file is a chunk map (pack::ChunkMap). Without
// pack mode a chunk is one pooled staging buffer (`staging_chunk_bytes`)
// and the codec is identity, so every run is one chunk and a file of up
// to one buffer stages, evicts and serves as one tier object
// (`name#c0`); a larger file becomes one object per chunk. Pack mode
// picks a smaller chunk and a codec, and a run then holds several
// chunks. When the read path sees chunks that only exist on the PFS it
// claims them (Claim) before it reads them, then hands them over.
// Dedicated worker threads — the paper configures 6 — then, run by run:
//   1. ask the placement policy for a writable level with room
//      (first-fit top-down in the paper's configuration) — before the
//      PFS is read when the run's stored size is known up front,
//   2. assemble the run in one buffer from a bounded, reusable pool
//      (peak staging memory is `staging_buffer_bytes`, never a function
//      of file sizes), reusing the bytes the triggering read already
//      pulled (its donation) and reading only the rest from the PFS,
//   3. write it as one tier object, read it back when
//      verify_staged_writes is on, and publish it with its CRC32Cs so
//      later reads of its chunks are served from it.
//
// One staging queue: every task waits in a qos::FairQueue keyed by I/O
// class. DEMAND tasks come from actual reads and ride their tenant's
// class; PREFETCH tasks come from look-ahead over the run schedule
// (TakeAhead), repair and pack-mode stretch reads (a stretch read's
// extent neighbours), and ride the prefetch class in the background
// band, so they only run when no demand-band work is queued. A demand
// read (or a peer's stage request) that overtakes a queued prefetch
// promotes it: the task is extracted from the prefetch class and
// re-pushed on the reader's class. Prefetch evicts
// only by the run schedule, and a prefetch rejection is never permanent.
//
// Read-ahead: look-ahead also readies scheduled files it does not stage.
// A READ-AHEAD task on the prefetch lane reads a file's runs whole — from
// the local tier holding them, or from a peer over the peer rung — into
// deposits (kDeposit: never past the budget, never at a donation's
// cost), kept unserved for the file's next visit.
//
// Joins: a read whose chunks are claimed waits for the file's joinable
// copy, and one bound for a tier waits for its read-ahead, instead of
// reading those bytes a second time. Both are bits of the file's state
// word (FileInfo::kJoinable, kReadingAhead); DESIGN §3's transition
// table lists who sets and clears each, and under which lock.
//
// Failure ledger: backend I/O is retried inside the storage
// drivers; a staging task that still fails leaves the file retryable on
// a later access until the per-file cap (max_placement_attempts) parks
// it: every run dropped, the file unplaceable. A run whose bytes fail
// verification — on the staging readback or on a tier read — is
// QUARANTINED: deleted, its quota released, and its chunks served from
// the PFS again; corruption degrades to vanilla-PFS performance, never
// wrong bytes, and counts toward the same cap.
//
// Evictions (ISSUE 6): the paper's first-fit policy never evicts — with
// random per-epoch access every file is equally likely, so replacement
// would only add tier-to-tier traffic ("I/O trashing"). The eviction-
// capable policies (lru, hotspot; docs/PLACEMENT.md) make the opposite
// bet for partial-fit datasets: when a run finds no room, the handler
// walks a victim ranking and drops placed files — every run of each
// (EvictChunks), honouring read and visit pins — until the run fits.
// The demand lane
// evicts whenever the policy allows it (or the enable_eviction ablation
// forces it). The trainer publishes the run's schedule (RunSchedule)
// once; it feeds look-ahead prefetch, and under an evicting policy the
// handler also ranks by it (Belady: farthest next use first) instead of
// by the policy, and the prefetch lane may then evict too, but only
// residents needed later than its own file.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/file_info.h"
#include "core/metadata_container.h"
#include "core/peer_view.h"
#include "core/placement_policy.h"
#include "core/resilience.h"
#include "core/storage_hierarchy.h"
#include "pack/codec.h"
#include "pack/options.h"
#include "qos/fair_queue.h"
#include "qos/options.h"
#include "qos/tenant.h"
#include "util/buffer_pool.h"

namespace monarch::core {

struct PlacementOptions {
  /// Background copy threads (paper: 6).
  int num_threads = 6;

  /// When the framework's read covers only part of a chunk, stage the
  /// chunk anyway (§III-B: for a file of one chunk, the whole file).
  /// Disabling this is the `abl_design_choices` "no-full-fetch" arm: a
  /// read stages only the chunks it covers in full.
  bool fetch_full_file_on_partial_read = true;

  /// Force the demand lane to evict even under a policy that does not
  /// evict on its own (FirstFitPolicy's ablation arm: LRU-ordered
  /// victims). Policies whose EvictsUnderPressure() is true evict
  /// regardless of this flag; the prefetch lane evicts only by an
  /// installed run schedule.
  bool enable_eviction = false;

  /// Total budget for the chunk buffer pool — the hard cap on leased
  /// staging buffers (`[placement] staging_buffer_bytes`). Every byte
  /// Monarch holds past one request — donations, pack stretches,
  /// deposits and fetched peer runs — is capped at the same amount
  /// together, counted apart from the pool.
  std::uint64_t staging_buffer_bytes = 64ULL * 1024 * 1024;

  /// Copy granularity: each pooled buffer holds one chunk of this size
  /// (`[placement] staging_chunk_bytes`); without pack mode it is also
  /// the staging unit, every file's chunk size.
  std::uint64_t staging_chunk_bytes = 4ULL * 1024 * 1024;

  /// How many scheduled files look-ahead keeps in flight ahead of the
  /// newest demand read; 0 disables look-ahead prefetching
  /// (`[placement] prefetch_lookahead`). Consumed by Monarch, carried
  /// here so one options struct configures the whole staging engine.
  int prefetch_lookahead = 0;

  /// Multi-tenant QoS (ISSUE 10). When `qos.enabled`, the demand/prefetch
  /// queue generalizes to per-class weighted fair queuing (interactive >
  /// training > scan > drain/prefetch) and low-retention tenants are
  /// scan-resisted: they may only evict other low-retention copies, and
  /// `qos.scan_stage_cap_bytes` caps their resident footprint. Off, the
  /// queue degenerates to the original demand/prefetch behaviour.
  qos::QosOptions qos;

  /// Small-file packing. When `pack.enabled`, files are cut
  /// into `pack.chunk_bytes` chunks (clamped to the staging chunk size so
  /// a logical chunk always fits one pooled buffer) stored through
  /// `pack.codec`; otherwise the handler sets `pack.chunk_bytes` to the
  /// staging chunk size and stages without a codec.
  pack::PackOptions pack;
};

struct PlacementStats {
  std::uint64_t scheduled = 0;     ///< placement tasks enqueued (both lanes)
  std::uint64_t completed = 0;     ///< files now served from upper tiers
  std::uint64_t rejected_no_space = 0;
  std::uint64_t failed = 0;        ///< backend errors during staging
  std::uint64_t bytes_staged = 0;
  std::uint64_t evictions = 0;       ///< placed files dropped for space
  std::uint64_t evicted_bytes = 0;   ///< bytes those copies occupied
  /// Evictions the policy refused (no eligible victim) or that freed no
  /// usable room — the incoming file stayed rejected.
  std::uint64_t eviction_refused = 0;
  /// Victim claims reverted because a demand read held the file pinned.
  std::uint64_t eviction_pinned_skips = 0;
  std::uint64_t retries = 0;       ///< failed stagings left retryable
  std::uint64_t quarantined = 0;   ///< copies deleted on CRC mismatch
  std::uint64_t abandoned = 0;     ///< files past max_placement_attempts

  // Pipelined-staging telemetry (docs/OBSERVABILITY.md §1).
  std::uint64_t prefetch_scheduled = 0;  ///< prefetch-lane tasks enqueued
  /// Prefetch-lane copies, and copies of files look-ahead claimed (on
  /// either lane), published; read-aheads that left a deposit.
  std::uint64_t prefetch_completed = 0;
  std::uint64_t prefetch_promoted = 0;   ///< prefetches overtaken by demand
  std::uint64_t prefetch_cancelled = 0;  ///< prefetches dropped unstaged
  std::uint64_t chunks_copied = 0;       ///< run objects written
  std::uint64_t donated_bytes = 0;       ///< triggering-read bytes reused
  std::uint64_t donation_held_bytes = 0;  ///< gauge: donated bytes held
  std::uint64_t deposit_held_bytes = 0;   ///< gauge: deposited bytes held
  /// Look-ahead deposits (read-ahead or look-ahead staged runs) dropped
  /// or reclaimed before any read was served from them.
  std::uint64_t readahead_unread = 0;
  /// Gauge: staging tasks waiting, per I/O class (qos::ClassIndex).
  std::array<std::uint64_t, qos::kNumIoClasses> queue_depth{};
  std::uint64_t inflight_bytes = 0;      ///< gauge: bytes being copied now
  std::uint64_t buffer_pool_used_bytes = 0;      ///< gauge
  std::uint64_t buffer_pool_capacity_bytes = 0;  ///< gauge

  // Chunk-granularity staging.
  std::uint64_t chunks_staged = 0;        ///< chunk copies published
  std::uint64_t chunk_stored_bytes = 0;   ///< post-codec bytes written
  std::uint64_t chunks_evicted = 0;       ///< chunk copies dropped

  // Multi-tenant QoS (ISSUE 10; docs/OBSERVABILITY.md §1).
  /// Evictions where a low-retention requester dropped a non-low-
  /// retention copy. Zero by construction: the victim walk skips them.
  std::uint64_t cross_class_evictions = 0;
  /// Scan stagings refused by `qos.scan_stage_cap_bytes` (the read was
  /// served straight from the PFS instead of churning the cache).
  std::uint64_t scan_stage_refusals = 0;
  /// Gauge: resident bytes currently held by low-retention copies.
  std::uint64_t low_retention_resident_bytes = 0;
};

class PlacementHandler {
 public:
  /// `peer_view`, when set, learns when a file becomes fully resident
  /// and when its first run drops, so the cluster's FileDirectory tracks
  /// what this node can serve to peers.
  PlacementHandler(StorageHierarchy& hierarchy, MetadataContainer& metadata,
                   PlacementPolicyPtr policy, PlacementOptions options,
                   ResilienceOptions resilience = {},
                   PeerViewPtr peer_view = nullptr);
  ~PlacementHandler();

  PlacementHandler(const PlacementHandler&) = delete;
  PlacementHandler& operator=(const PlacementHandler&) = delete;

  /// The staging-memory budget (`staging_buffer_bytes`) that every byte
  /// Monarch holds past one request shares: donations (a read's bytes
  /// queued for their staging task, a pack stretch) and deposits (a
  /// staged or peer-fetched run kept for its next reader). Each charge
  /// holds it, so a lent view of held bytes may outlive the handler.
  struct Budget {
    explicit Budget(std::uint64_t limit_in) : limit(limit_in) {}
    const std::uint64_t limit;
    /// Guards both shares, so their sum is always read whole.
    mutable std::mutex mu;
    std::uint64_t donations = 0;  ///< gauge; guarded by mu
    std::uint64_t deposits = 0;   ///< gauge; guarded by mu
  };
  /// Which share of the budget held bytes count toward.
  using BudgetGauge = std::uint64_t Budget::*;
  static constexpr BudgetGauge kDonation = &Budget::donations;
  static constexpr BudgetGauge kDeposit = &Budget::deposits;

  /// One share of the budget, handed back when destroyed — with the last
  /// view of the bytes it was charged for (Held).
  class BudgetCharge {
   public:
    BudgetCharge() = default;
    BudgetCharge(std::shared_ptr<Budget> budget, BudgetGauge gauge,
                 std::uint64_t bytes) noexcept
        : budget_(std::move(budget)), gauge_(gauge), bytes_(bytes) {}
    BudgetCharge(BudgetCharge&& other) noexcept = default;
    BudgetCharge& operator=(BudgetCharge&& other) noexcept {
      Reset();
      budget_ = std::move(other.budget_);
      gauge_ = other.gauge_;
      bytes_ = other.bytes_;
      return *this;
    }
    ~BudgetCharge() { Reset(); }
    explicit operator bool() const noexcept { return budget_ != nullptr; }

   private:
    void Reset() noexcept {
      if (budget_ == nullptr) return;
      {
        std::lock_guard lock(budget_->mu);
        (*budget_).*gauge_ -= bytes_;
      }
      budget_.reset();
    }
    std::shared_ptr<Budget> budget_;
    BudgetGauge gauge_ = nullptr;
    std::uint64_t bytes_ = 0;
  };

  /// Bytes a read already pulled, handed to the file's staging task: the
  /// file's bytes [offset, offset + bytes.size()); empty = nothing
  /// donated. The view's keepalive owns them and their budget charge.
  struct Donation {
    std::uint64_t offset = 0;
    storage::ReadView bytes;
  };

  /// Charge `bytes` to the budget's `gauge` share when the held bytes
  /// plus them fit `staging_buffer_bytes` — a donation dropping the
  /// oldest deposits to make room, since a donation (a saved PFS read)
  /// always wins over a deposit; an empty charge otherwise.
  BudgetCharge Charge(std::uint64_t bytes, BudgetGauge gauge);
  /// The one form in which bytes are held past a request: a view of
  /// `bytes` whose keepalive owns them and `charge`, so the budget share
  /// returns with the last view.
  static storage::ReadView Held(storage::ReadView bytes, BudgetCharge charge);
  /// The most a donation could be charged now: the free budget plus
  /// what deposits hold.
  [[nodiscard]] std::uint64_t DonationRoom() const noexcept;
  /// A copy of `bytes` (the file's bytes from `offset`) as a donation
  /// when the budget has room for them; an empty donation otherwise.
  Donation Donate(std::uint64_t offset, std::span<const std::byte> bytes);
  /// The one run reader for deposits: charge the `bytes` of `file`'s run
  /// starting at chunk `start` (kDeposit), read it whole from `level` (a
  /// local tier or the peer level), check it against `crcs` (its chunks'
  /// logical CRCs, if any) and keep it as the run's unserved deposit,
  /// `ahead` when look-ahead made it — a local run under the placement
  /// mutex, and only while it is still resident. Returns the read's
  /// error, else whether a deposit was made.
  Result<bool> DepositRun(const FileInfoPtr& file, int level,
                          std::uint32_t start, std::size_t bytes,
                          std::span<const std::uint32_t> crcs, bool ahead);

  /// Read `file`'s runs on `level` — the local tier holding them, or the
  /// peer level — whole into deposits ahead of its next visit, on the
  /// prefetch lane. Skipped while a read-ahead of the file is queued or
  /// running, or once scheduling stopped. Never blocks.
  void ScheduleReadAhead(FileInfoPtr file, int level);

  /// A demand read reached `file` while it is marked reading ahead: run
  /// the queued read-ahead on the calling thread, or wait for the running
  /// one. Returns false when there was neither.
  bool JoinReadAhead(const FileInfoPtr& file);

  /// Stage chunks of `file`. `chunks` are ascending chunk indexes the
  /// caller already claimed via ChunkMap::TryClaim; the handler stages
  /// them — codec encode, CRC on both sides — each run of consecutive
  /// chunks as one tier object, and releases every claim (publish or
  /// back-out). The bytes `donation` covers are staged from it, never
  /// re-read; each stretch it does not is read from the PFS with one
  /// read. Never blocks. `neighbours`: see StagingTask.
  void ScheduleChunkPlacement(FileInfoPtr file,
                              std::vector<std::uint32_t> chunks,
                              Donation donation,
                              StagingLane lane = StagingLane::kDemand,
                              std::uint32_t neighbours = 0);

  /// Claim the chunks [first, min(stop, chunk count)) of `file` that are
  /// neither resident nor claimed — all or none when `whole` — for a
  /// task the caller schedules or hands back (ReleaseClaims). With
  /// `joinable` the copy is joinable, here and in the peer view, from the
  /// first claim on. Returns the claimed chunks, ascending; none when the
  /// file is parked.
  std::vector<std::uint32_t> Claim(const FileInfoPtr& file,
                                   std::uint32_t first, std::uint32_t stop,
                                   bool whole, bool joinable);

  /// Hand back claims of `file` no task will stage (resetting the chunk
  /// tier when nothing ended up resident) and end its joinable copy,
  /// waking its joiners.
  void ReleaseClaims(FileInfo& file, std::span<const std::uint32_t> chunks);

  /// A demand read overtook a queued prefetch of `file`: re-queue the
  /// task on the reader's class so it stops waiting behind other
  /// speculative work — and becomes joinable for later reads. Returns
  /// false when no queued prefetch matched (the copy may already be
  /// running or done).
  bool PromoteToDemand(const FileInfoPtr& file);

  /// Drop every queued prefetch task — staging ones return their files
  /// to the retryable PFS-only state, read-aheads their marks. Used at
  /// StopPlacement/shutdown; returns the number of cancelled prefetches.
  std::size_t CancelPrefetches();

  /// Drop the run holding chunk `chunk` of `file` because the read path
  /// found its tier object gone, or `corrupt`: delete the object, release
  /// its bytes once, and fold the file back to PFS-resident when nothing
  /// else stays resident. A later miss re-stages the chunks. A corrupt
  /// run is quarantined: counted, and charged to the file's failure cap,
  /// which parks the file — at once with restage_after_quarantine off.
  /// Thread-safe.
  void DropChunkRun(const FileInfoPtr& file, std::uint32_t chunk,
                    bool corrupt);

  /// Remove every staged run of `file` for the end-of-job cleanup
  /// (Monarch::CleanupStagedCopies), read pins notwithstanding. Returns
  /// true when a run went.
  bool CleanupCopy(const FileInfoPtr& file);

  /// Let go of every deposit (Monarch::Shutdown, CleanupStagedCopies).
  void DropDeposits();

  /// Install the whole-run demand access sequence
  /// (Monarch::InstallRunSchedule). Kept when the policy evicts or
  /// look-ahead is on; it ranks victims only under an evicting policy
  /// (first-fit and the enable_eviction ablation keep their ranking).
  void InstallSchedule(const std::vector<std::string>& sequence);

  /// One demand file visit (offset-0 reads only, not chunks): policy
  /// bookkeeping, and the schedule clock when one is installed.
  void NoteAccess(const FileInfo& file);

  /// The scheduled names look-ahead should claim next: those not yet
  /// handed out, up to `n` positions past the schedule clock
  /// (RunSchedule::TakeAhead). Empty without a schedule.
  [[nodiscard]] std::vector<std::string> TakeAhead(std::uint64_t n) {
    return schedule_.TakeAhead(n);
  }

  /// What ranks evictions, for operators: "schedule (clock C of L
  /// accesses)" or "policy (<name>)".
  [[nodiscard]] std::string EvictionRanking() const;

  /// Stop scheduling new placements (e.g. the integration layer signals
  /// the end of epoch 1 when tiers filled); in-flight tasks finish.
  void StopScheduling() noexcept { stopped_.store(true); }
  [[nodiscard]] bool stopped() const noexcept { return stopped_.load(); }

  /// Block until every scheduled placement finished (tests, shutdown).
  void Drain();

  [[nodiscard]] PlacementStats Stats() const;

  [[nodiscard]] const PlacementOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const BufferPool& buffer_pool() const noexcept {
    return pool_;
  }

  /// The resolved chunk codec (nullptr = identity / "none"). The read
  /// path decodes with exactly this codec so both sides always agree.
  [[nodiscard]] const pack::Codec* pack_codec() const noexcept {
    return codec_;
  }

 private:
  struct StagingTask {
    FileInfoPtr file;
    Donation donation;
    StagingLane lane = StagingLane::kDemand;
    /// Claimed chunk indexes, ascending.
    std::vector<std::uint32_t> chunks;
    /// Who this staging serves, captured from the scheduling thread's
    /// ambient tenant and re-installed on the worker (ISSUE 10).
    qos::TenantContext tenant;
    /// Extent neighbours the stretch read staged alongside (traces).
    std::uint32_t neighbours = 0;
    /// A read-ahead of the file's runs on this level (ReadAhead) instead
    /// of a staging; -1 for a staging task.
    int read_ahead = -1;
  };

  /// Fair-queue class the task is served on: the prefetch lane always
  /// rides the prefetch class; demand tasks use their tenant's I/O
  /// class (interactive/training in band 0, scan in band 1).
  [[nodiscard]] static int TaskClass(const StagingTask& task) noexcept;
  /// Service cost of the task in bytes (fair-queue finish-tag units).
  [[nodiscard]] static double TaskCost(const StagingTask& task) noexcept;
  /// Enqueue on the fair queue. Caller holds mu_.
  void PushLocked(StagingTask task);
  /// Drop the oldest deposits until `bytes` more fit the budget, or none
  /// is left. Returns whether they fit.
  bool ReclaimDeposits(std::uint64_t bytes);
  /// Register `file`, just handed a deposit, for ReclaimDeposits and
  /// DropDeposits.
  void NoteDepositor(const FileInfoPtr& file);
  /// Count and enqueue a claimed task — or, once scheduling stopped,
  /// cancel it and hand its claims back. A read-ahead is enqueued only
  /// when the file has none queued or running. Never blocks.
  void Enqueue(StagingTask task);
  /// A queued task dropped unrun: count a cancelled prefetch and hand
  /// back what the task holds — a staging task's chunk claims and
  /// joinable copy, a read-ahead's mark.
  void DropUnrun(const StagingTask& task);
  /// Set `file`'s kJoinable bit; the peer view hears OnCopyBegin on the
  /// set edge only. One copy's bit is set at its claim, its queueing and
  /// its pop, so only edges keep the view's begins and ends paired.
  void BeginJoinable(FileInfo& file);
  /// Clear it, waking its joiners; the peer view hears OnCopyEnd on the
  /// clear edge only.
  void EndJoinable(FileInfo& file);
  /// A speculative task dropped before staging: count it and clear the
  /// file's look-ahead marking.
  void CancelPrefetch(FileInfo& file) noexcept;
  /// Scan resistance (ISSUE 10): true when a low-retention task would
  /// push its tenant past `qos.scan_stage_cap_bytes`; the refusal is
  /// counted, kStageRefused latched and the task's claims released.
  bool RefuseScanStaging(const StagingTask& task);
  /// No level had room even after eviction: count the rejection, and
  /// cancel a prefetch task (a prefetch rejection is never permanent).
  void CountNoSpace(const StagingTask& task);
  /// Low-retention bookkeeping when a file's last run disappears
  /// (eviction, quarantine, cleanup): clears the file's marking and
  /// returns the resident gauge's share. Returns whether the copy was
  /// low-retention.
  bool NoteCopyDropped(FileInfo& file) noexcept;

  void WorkerLoop();
  /// The file's bytes [offset, offset + n) for one staging run (n fits
  /// one pooled buffer): a view of the task's donation when it covers
  /// the whole range, else assembled in the pooled `lease` (acquired on
  /// first use) — the donated part copied in, the stretches before and
  /// after it read from the PFS with one read each.
  Result<std::span<const std::byte>> SliceSource(
      const StagingTask& task, std::uint64_t offset, std::size_t n,
      std::optional<BufferPool::Lease>& lease);
  /// Count one failed staging attempt and either leave the file
  /// retryable (a later access re-claims it) or park it once the
  /// per-file cap is hit.
  void RecordStagingFailure(FileInfo& file);
  /// Drop every run of `file` and mark it unplaceable: later reads are
  /// served from the PFS and never claim its chunks again.
  void Park(FileInfo& file);
  /// Whether the demand lane may evict: the policy evicts under
  /// pressure, or the enable_eviction ablation forces it.
  [[nodiscard]] bool Evicts() const noexcept {
    return options_.enable_eviction || policy_->EvictsUnderPressure();
  }
  /// Whether the run schedule is kept: it ranks an evicting policy's
  /// victims, and it feeds look-ahead prefetch.
  [[nodiscard]] bool TracksSchedule() const noexcept {
    return policy_->EvictsUnderPressure() || options_.prefetch_lookahead > 0;
  }
  /// Reserve `bytes` (one stored run) on the level PickLevel chooses — or only on `level` when set — and,
  /// when nothing has room, walk the victim ranking (an evicting
  /// policy's run schedule when installed, else the policy's; filtered
  /// to `level` when set), dropping placed copies until the reservation
  /// succeeds. Returns the reserved level, or nullopt when the lane may
  /// not evict, the ranking offered no victims, or the freed space still
  /// was not enough.
  std::optional<int> EvictAndReserve(const FileInfoPtr& file,
                                     StagingLane lane, std::uint64_t bytes,
                                     std::optional<int> level = std::nullopt);

  /// Stage the claimed chunks of one task, run by run.
  void PlaceChunks(StagingTask task);
  /// Run a read-ahead task: deposit each run of the file on its level
  /// that holds none yet (DepositRun) — `ahead` (a prefetch) when a
  /// worker runs it, not when an overtaking reader does. Stops at the
  /// first run it could not deposit.
  void ReadAhead(const StagingTask& task, bool ahead);
  /// Ensure `file`'s chunk map has a tier and that tier has room for
  /// `stored_bytes` (reserving them). Evicts per the lane's rules when
  /// the assigned tier is full. Returns the level, or nullopt when no
  /// space could be made.
  std::optional<int> ReserveChunk(const FileInfoPtr& file,
                                  pack::ChunkMap& cm,
                                  std::uint64_t stored_bytes,
                                  StagingLane lane);
  /// One run of the task's chunks, [first, first + metas.size()), whose
  /// stored bytes are `stored`, already reserved on `level`: one Write of
  /// the run object, one verify_staged_writes readback, one publish.
  /// Returns the error that failed the copy (the object is deleted, its
  /// bytes released).
  Status StageRun(const StagingTask& task, pack::ChunkMap& cm, int level,
                  std::uint32_t first,
                  std::span<const pack::ChunkMap::ChunkMeta> metas,
                  std::span<const std::byte> stored);
  /// Drop the run holding `chunk` (if resident): clear its chunks and
  /// its deposit, retract a fully resident file from the peer view,
  /// delete the run's object from `tier` and release its bytes. Caller
  /// holds the chunk map's placement mutex.
  pack::ChunkMap::EvictedRun DropRunLocked(FileInfo& file,
                                           pack::ChunkMap& cm,
                                           StorageDriver& tier,
                                           std::uint32_t chunk);
  /// Once nothing of `file` stays resident, reset its chunk tier and fold
  /// it back to PFS-resident — unplaceable when `park`. Caller holds the
  /// placement mutex.
  void FoldBackLocked(FileInfo& file, pack::ChunkMap& cm, bool park);
  /// Drop every resident run of `file`, then FoldBackLocked. Returns the
  /// chunks and stored bytes dropped. Caller holds the placement mutex.
  pack::ChunkMap::EvictedRun DropAllLocked(FileInfo& file, pack::ChunkMap& cm,
                                           bool park);
  /// Evict `victim` for space: drop every resident run of it, honouring
  /// read pins and scan resistance, and count one eviction. Returns
  /// false when the file was pinned, protected or had nothing resident.
  bool EvictChunks(const FileInfoPtr& victim);

  StorageHierarchy& hierarchy_;
  MetadataContainer& metadata_;
  PlacementPolicyPtr policy_;
  /// The run's access order, installed when the policy evicts or
  /// look-ahead is on (TracksSchedule).
  RunSchedule schedule_;
  PlacementOptions options_;
  ResilienceOptions resilience_;
  PeerViewPtr peer_view_;
  /// Makes a kJoinable edge and its peer-view report one step: reported
  /// out of the word's order, an end could land before its begin and
  /// leave the directory showing a copy that no longer runs. Taken only
  /// with a peer view: without one there is nothing to order.
  std::mutex copy_edge_mu_;
  BufferPool pool_;

  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> scheduled_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_no_space_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> bytes_staged_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> evicted_bytes_{0};
  std::atomic<std::uint64_t> eviction_refused_{0};
  std::atomic<std::uint64_t> eviction_pinned_skips_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::uint64_t> abandoned_{0};
  std::atomic<std::uint64_t> prefetch_scheduled_{0};
  std::atomic<std::uint64_t> prefetch_completed_{0};
  std::atomic<std::uint64_t> prefetch_promoted_{0};
  std::atomic<std::uint64_t> prefetch_cancelled_{0};
  std::atomic<std::uint64_t> chunks_copied_{0};
  std::atomic<std::uint64_t> donated_bytes_{0};
  std::atomic<std::uint64_t> readahead_unread_{0};
  /// Bytes held by donations and deposits (BudgetCharge).
  std::shared_ptr<Budget> budget_;
  /// Files handed a deposit, oldest first, for ReclaimDeposits and
  /// DropDeposits; an entry may outlive its file's deposits.
  std::mutex deposits_mu_;
  std::deque<FileInfoPtr> depositors_;  ///< guarded by deposits_mu_
  std::size_t prune_depositors_at_ = 64;  ///< guarded by deposits_mu_
  std::atomic<std::uint64_t> chunks_staged_{0};
  std::atomic<std::uint64_t> chunk_stored_bytes_{0};
  std::atomic<std::uint64_t> chunks_evicted_{0};
  std::atomic<std::uint64_t> cross_class_evictions_{0};
  std::atomic<std::uint64_t> scan_stage_refusals_{0};
  std::atomic<std::uint64_t> low_retention_resident_bytes_{0};
  std::atomic<std::uint64_t> inflight_bytes_{0};  ///< gauge, all tiers

  /// Codec for chunk staging, resolved once from options_.pack.codec in
  /// pack mode (falls back to the identity codec on an unknown name).
  const pack::Codec* codec_ = nullptr;

  // Per-class fair work queue (ISSUE 10; the original two lanes are the
  // degenerate case: every demand task on the training class, prefetch
  // on the prefetch class).
  mutable std::mutex mu_;
  std::condition_variable cv_;        ///< workers wait here
  std::condition_variable drain_cv_;  ///< Drain() waits here
  qos::FairQueue<StagingTask> queue_;
  int active_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace monarch::core

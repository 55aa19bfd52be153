// PlacementHandler: MONARCH's background staging engine (§III-A/B),
// rebuilt as a pipelined, two-lane copy service.
//
// When the read path sees a file that only exists on the PFS, it claims
// the file (FileInfo CAS) and hands it to this module. Dedicated worker
// threads — the paper configures 6 — then:
//   1. ask the placement policy for a writable level with room
//      (first-fit top-down in the paper's configuration),
//   2. stream the file tier-to-tier in fixed-size chunks drawn from a
//      bounded, reusable buffer pool (peak staging memory is
//      `staging_buffer_bytes`, never a function of file sizes), reusing
//      any leading bytes the triggering read already pulled instead of
//      re-reading them from the PFS,
//   3. publish the copy — recording its incrementally computed CRC32C
//      and, when verify_staged_writes is on, reading it back chunk by
//      chunk to prove the bytes landed intact — and flip the file's
//      level so subsequent reads are served from it.
//
// Two lanes: DEMAND tasks come from actual reads and always run first;
// PREFETCH tasks come from look-ahead hints (Monarch::HintUpcoming) and
// only run when no demand work is queued. A per-tier in-flight byte cap
// additionally parks prefetch copies while a tier's staging bandwidth is
// saturated, so speculative work cannot starve demand staging. A demand
// read that overtakes a queued prefetch promotes it to the demand lane;
// prefetch never evicts and a prefetch rejection is never permanent.
//
// Failure handling (ISSUE 2): backend I/O is retried inside the storage
// drivers; a staging attempt that still fails is re-tried on a later
// access until the per-file cap (max_placement_attempts) marks the file
// unplaceable. A staged copy whose checksum does not match is
// QUARANTINED: deleted, its quota released, and the file reset to
// PFS-resident — corruption degrades to vanilla-PFS performance, never
// wrong bytes.
//
// Evictions (ISSUE 6): the paper's first-fit policy never evicts — with
// random per-epoch access every file is equally likely, so replacement
// would only add tier-to-tier traffic ("I/O trashing"). The eviction-
// capable policies (lru, hotspot, clairvoyant; docs/PLACEMENT.md) make
// the opposite bet for partial-fit datasets: when PickLevel finds no
// room, the handler walks the policy's victim ranking and drops placed
// copies — through the same claim/delete/OnDropped path as quarantine,
// honouring read pins — until the incoming file fits. The demand lane
// evicts whenever the policy allows it (or the enable_eviction ablation
// forces it); the prefetch lane only under clairvoyant, whose
// speculative copies are certain future reads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
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

/// Which queue a staging task belongs to. Demand tasks (read-triggered)
/// always pop before prefetch tasks (hint-triggered).
enum class StagingLane { kDemand, kPrefetch };

struct PlacementOptions {
  /// Background copy threads (paper: 6).
  int num_threads = 6;

  /// When the framework's read covers only part of the file, fetch the
  /// whole file in the background anyway (§III-B). Disabling this is the
  /// `abl_design_choices` "no-full-fetch" arm: only full-file reads get
  /// staged.
  bool fetch_full_file_on_partial_read = true;

  /// Force the demand lane to evict even under a policy that does not
  /// evict on its own (FirstFitPolicy's ablation arm: LRU-ordered
  /// victims). Policies whose EvictsUnderPressure() is true evict
  /// regardless of this flag; the prefetch lane evicts only when the
  /// policy's PrefetchMayEvict() allows it (clairvoyant).
  bool enable_eviction = false;

  /// Total budget for the chunk buffer pool — the hard cap on staging
  /// memory (`[placement] staging_buffer_bytes`).
  std::uint64_t staging_buffer_bytes = 64ULL * 1024 * 1024;

  /// Copy granularity: each pooled buffer holds one chunk of this size
  /// (`[placement] staging_chunk_bytes`).
  std::uint64_t staging_chunk_bytes = 4ULL * 1024 * 1024;

  /// Per-tier cap on bytes being staged concurrently by the PREFETCH
  /// lane; 0 = uncapped. While a tier carries this much in-flight
  /// staging, further prefetch copies park until a copy completes —
  /// demand staging is exempt (`[placement] tier_inflight_cap_bytes`).
  std::uint64_t tier_inflight_cap_bytes = 0;

  /// How many hinted files the prefetch cursor keeps in flight ahead of
  /// the newest demand read; 0 disables look-ahead prefetching
  /// (`[placement] prefetch_lookahead`). Consumed by Monarch, carried
  /// here so one options struct configures the whole staging engine.
  int prefetch_lookahead = 0;

  /// Multi-tenant QoS (ISSUE 10). When `qos.enabled`, the two-lane
  /// queue generalizes to per-class weighted fair queuing (interactive >
  /// training > scan > drain/prefetch) and low-retention tenants are
  /// scan-resisted: they may only evict other low-retention copies, and
  /// `qos.scan_stage_cap_bytes` caps their resident footprint. Off, the
  /// queue degenerates to the original demand/prefetch behaviour.
  qos::QosOptions qos;

  /// Small-file packing / chunk-granularity staging (ISSUE 9). When
  /// `pack.enabled`, dataset files are staged, evicted and served chunk
  /// by chunk through `ScheduleChunkPlacement` instead of whole-file
  /// `SchedulePlacement`; `pack.chunk_bytes` is clamped to the staging
  /// chunk size so a logical chunk always fits one pooled buffer.
  pack::PackOptions pack;
};

struct PlacementStats {
  std::uint64_t scheduled = 0;     ///< placement tasks enqueued (both lanes)
  std::uint64_t completed = 0;     ///< files now served from upper tiers
  std::uint64_t rejected_no_space = 0;
  std::uint64_t failed = 0;        ///< backend errors during staging
  std::uint64_t bytes_staged = 0;
  std::uint64_t evictions = 0;       ///< placed copies dropped for space
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
  std::uint64_t prefetch_scheduled = 0;  ///< hint-lane tasks enqueued
  std::uint64_t prefetch_completed = 0;  ///< hint-lane copies published
  std::uint64_t prefetch_promoted = 0;   ///< hints overtaken by demand reads
  std::uint64_t prefetch_cancelled = 0;  ///< hints dropped before staging
  std::uint64_t chunks_copied = 0;       ///< chunk writes across all copies
  std::uint64_t donated_bytes = 0;       ///< triggering-read bytes reused
  std::uint64_t queue_depth_demand = 0;  ///< gauge: demand tasks waiting
  std::uint64_t queue_depth_prefetch = 0; ///< gauge: prefetch waiting+parked
  std::uint64_t inflight_bytes = 0;      ///< gauge: bytes being copied now
  /// Per-hierarchy-level breakdown of `inflight_bytes` (monarchctl
  /// stage-status; the in-flight cap is enforced per tier).
  std::vector<std::uint64_t> inflight_bytes_per_level;
  std::uint64_t buffer_pool_used_bytes = 0;      ///< gauge
  std::uint64_t buffer_pool_capacity_bytes = 0;  ///< gauge

  // Chunk-granularity staging (ISSUE 9; zero when pack mode is off).
  std::uint64_t chunks_staged = 0;        ///< chunk copies published
  std::uint64_t chunk_stored_bytes = 0;   ///< post-codec bytes written
  std::uint64_t chunks_evicted = 0;       ///< chunk copies dropped
  std::uint64_t chunk_failures = 0;       ///< chunk copies that failed

  // Multi-tenant QoS (ISSUE 10; docs/OBSERVABILITY.md §1).
  std::uint64_t queue_depth_interactive = 0;  ///< gauge: class depth
  std::uint64_t queue_depth_training = 0;     ///< gauge: class depth
  std::uint64_t queue_depth_scan = 0;         ///< gauge: class depth
  std::uint64_t queue_depth_drain = 0;        ///< gauge: class depth
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
  /// `peer_view`, when set, is notified of every publish/drop of a
  /// placed copy so the cluster's FileDirectory tracks what this node
  /// can serve to peers (ISSUE 4).
  PlacementHandler(StorageHierarchy& hierarchy, MetadataContainer& metadata,
                   PlacementPolicyPtr policy, PlacementOptions options,
                   ResilienceOptions resilience = {},
                   PeerViewPtr peer_view = nullptr);
  ~PlacementHandler();

  PlacementHandler(const PlacementHandler&) = delete;
  PlacementHandler& operator=(const PlacementHandler&) = delete;

  /// Called after `file` was claimed (TryBeginFetch). `content`: bytes
  /// the triggering read already pulled — the full file, or a leading
  /// prefix that the chunk pipeline extends with PFS reads (donated
  /// bytes are never re-read). Never blocks the caller.
  void SchedulePlacement(FileInfoPtr file,
                         std::optional<std::vector<std::byte>> content,
                         StagingLane lane = StagingLane::kDemand);

  /// Chunk-granularity staging (pack mode). `chunks` are chunk indexes
  /// the caller already claimed via ChunkMap::TryClaim; the handler
  /// stages each one — PFS read at the chunk's offset, optional codec
  /// encode, CRC on both sides — through the same two-lane pipeline and
  /// releases every claim (publish or back-out). Never blocks.
  void ScheduleChunkPlacement(FileInfoPtr file,
                              std::vector<std::uint32_t> chunks,
                              StagingLane lane = StagingLane::kDemand);

  /// A demand read overtook a queued (or parked) prefetch of `file`:
  /// move the task to the demand lane so it stops waiting behind other
  /// speculative work. Returns false when no queued prefetch matched
  /// (the copy may already be running or done).
  bool PromoteToDemand(const FileInfoPtr& file);

  /// Drop every queued/parked prefetch task and return the files to the
  /// retryable PFS-only state. Used at StopPlacement/shutdown; returns
  /// the number of cancelled hints.
  std::size_t CancelPrefetches();

  /// Remove `file`'s tier copy because its bytes failed verification:
  /// claim it (kPlaced -> kFetching), delete the copy, release the
  /// quota, and reset the file to PFS-resident (or unplaceable once past
  /// the failure cap). Returns false when another thread already holds
  /// the file in a non-kPlaced state. Thread-safe.
  bool QuarantineCopy(const FileInfoPtr& file);

  /// Drop every resident chunk copy of `file` (pack mode): delete the
  /// chunk objects, release their quota, and reset the file to
  /// PFS-resident once nothing remains. Honours read pins. Returns the
  /// stored bytes freed (Monarch::CleanupStagedCopies, tests).
  std::uint64_t EvictChunkCopies(const FileInfoPtr& file) {
    return EvictChunks(file, std::numeric_limits<std::uint64_t>::max());
  }

  /// Forward the whole-run demand access sequence to the policy
  /// (Monarch::InstallRunSchedule; the clairvoyant policy consumes it).
  void InstallSchedule(const std::vector<std::string>& sequence);

  /// Forward one demand access to the policy (offset-0 reads only — the
  /// policy sees file visits, not chunks).
  void NoteAccess(const FileInfo& file);

  [[nodiscard]] const PlacementPolicy& policy() const noexcept {
    return *policy_;
  }

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
  [[nodiscard]] const ResilienceOptions& resilience() const noexcept {
    return resilience_;
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
    std::optional<std::vector<std::byte>> content;
    StagingLane lane = StagingLane::kDemand;
    /// Claimed chunk indexes (pack mode); empty = whole-file task.
    std::vector<std::uint32_t> chunks;
    /// Who this staging serves, captured from the scheduling thread's
    /// ambient tenant and re-installed on the worker (ISSUE 10).
    qos::TenantContext tenant;
  };

  /// Fair-queue class the task is served on: the prefetch lane always
  /// rides the prefetch class; demand tasks use their tenant's I/O
  /// class (interactive/training in band 0, scan in band 1).
  [[nodiscard]] static int TaskClass(const StagingTask& task) noexcept;
  /// Service cost of the task in bytes (fair-queue finish-tag units).
  [[nodiscard]] double TaskCost(const StagingTask& task) const noexcept;
  /// Enqueue on the fair queue. Caller holds mu_.
  void PushLocked(StagingTask task);
  /// Count and enqueue a claimed task — or, once scheduling stopped,
  /// cancel it and hand its claims back. Never blocks.
  void Enqueue(StagingTask task);
  /// Back out of a task without staging: abort the file-level fetch, or
  /// release every chunk claim (resetting the chunk tier when nothing
  /// ended up resident).
  void ReleaseClaims(const StagingTask& task);
  /// A speculative task dropped before staging: count it and clear the
  /// file's hint marking.
  void CancelPrefetch(FileInfo& file) noexcept;
  /// Scan resistance (ISSUE 10): true when a low-retention task would
  /// push its tenant past `qos.scan_stage_cap_bytes`; the refusal is
  /// counted, stage_refused latched and the task's claims released.
  bool RefuseScanStaging(const StagingTask& task);
  /// No level had room even after eviction: count the rejection, and
  /// cancel a prefetch task (a prefetch rejection is never permanent).
  void CountNoSpace(const StagingTask& task);
  /// Low-retention bookkeeping when a staged copy disappears (eviction,
  /// quarantine): clears the file's marking and returns the resident
  /// gauge's share.
  void NoteCopyDropped(FileInfo& file) noexcept;

  void WorkerLoop();
  /// Stage one file. Returns normally whether the copy succeeded,
  /// failed, or was parked on the in-flight cap.
  void PlaceFile(StagingTask task);
  /// Chunk loop: write the donated `prefix` (if any), then stream the
  /// rest of the file from the PFS through one pooled buffer.
  /// `crc` accumulates over every byte in file order.
  Status StreamCopy(const FileInfoPtr& file,
                    const std::optional<std::vector<std::byte>>& prefix,
                    StorageDriver& destination, std::uint32_t& crc);
  /// Chunked read-back verification against `crc` (bounded memory).
  bool VerifyStagedCopy(const FileInfoPtr& file, StorageDriver& destination,
                        std::uint32_t crc);
  /// Count one failed staging attempt and either leave the file
  /// retryable (a later access re-claims it) or mark it unplaceable once
  /// the per-file cap is hit.
  void RecordStagingFailure(const FileInfoPtr& file);
  /// Reserve `bytes` (the whole file, or one stored chunk in pack mode)
  /// on the level PickLevel chooses — or only on `level` when set — and,
  /// when nothing has room, walk the policy's victim ranking (filtered
  /// to `level` when set), dropping placed copies until the reservation
  /// succeeds. Returns the reserved level, or nullopt when the lane may
  /// not evict, the policy offered no victims, or the freed space still
  /// was not enough.
  std::optional<int> EvictAndReserve(const FileInfoPtr& file,
                                     StagingLane lane, std::uint64_t bytes,
                                     std::optional<int> level = std::nullopt);
  /// Drop one placed copy: claim it (kPlaced -> kFetching), honour read
  /// pins, delete the bytes, release the quota, notify the peer view.
  /// Returns false when the claim failed or the file was pinned. A
  /// chunk-resident victim drops all of its chunks via EvictChunks.
  bool EvictOne(const FileInfoPtr& victim);

  /// Stage the claimed chunks of one task (pack mode).
  void PlaceChunks(StagingTask task);
  /// Ensure `file`'s chunk map has a tier and that tier has room for
  /// `stored_bytes` (reserving them). Evicts per the lane's rules when
  /// the assigned tier is full. Returns the level, or nullopt when no
  /// space could be made.
  std::optional<int> ReserveChunk(const FileInfoPtr& file,
                                  pack::ChunkMap& cm,
                                  std::uint64_t stored_bytes,
                                  StagingLane lane);
  /// Drop resident chunks of `victim` until at least `needed_bytes` of
  /// stored bytes were freed (or the file ran dry). Returns bytes freed.
  std::uint64_t EvictChunks(const FileInfoPtr& victim,
                            std::uint64_t needed_bytes);

  /// Take the in-flight accounting for `task`'s copy to `level`. For the
  /// prefetch lane, parks the task (moving from it) and returns false
  /// when the tier is already past the cap (progress guaranteed: parking
  /// requires another copy in flight on that tier).
  bool AdmitInflight(int level, StagingTask& task);
  void FinishInflight(int level, std::uint64_t size);

  StorageHierarchy& hierarchy_;
  MetadataContainer& metadata_;
  PlacementPolicyPtr policy_;
  PlacementOptions options_;
  ResilienceOptions resilience_;
  PeerViewPtr peer_view_;
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
  std::atomic<std::uint64_t> chunks_staged_{0};
  std::atomic<std::uint64_t> chunk_stored_bytes_{0};
  std::atomic<std::uint64_t> chunks_evicted_{0};
  std::atomic<std::uint64_t> chunk_failures_{0};
  std::atomic<std::uint64_t> cross_class_evictions_{0};
  std::atomic<std::uint64_t> scan_stage_refusals_{0};
  std::atomic<std::uint64_t> low_retention_resident_bytes_{0};

  /// Codec for chunk staging, resolved once from options_.pack.codec
  /// (falls back to the identity codec on an unknown name).
  const pack::Codec* codec_ = nullptr;

  // Per-class fair work queue (ISSUE 10; the original two lanes are the
  // degenerate case: every demand task on the training class, prefetch
  // on the prefetch class). `deferred_` holds prefetch tasks parked by
  // the per-tier in-flight cap; any copy completion splices them back
  // into the queue (under mu_, so no wakeup is lost).
  mutable std::mutex mu_;
  std::condition_variable cv_;        ///< workers wait here
  std::condition_variable drain_cv_;  ///< Drain() waits here
  qos::FairQueue<StagingTask> queue_;
  std::vector<StagingTask> deferred_;
  std::vector<std::uint64_t> inflight_bytes_;  ///< per level, under mu_
  int active_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace monarch::core

// Monarch: the middleware facade (the public API of this library).
//
// A Monarch instance sits between a DL framework and the storage
// hierarchy. The framework replaces its POSIX pread with Monarch::Read —
// the paper's TensorFlow integration is exactly that swap (6 LoC) — and
// everything else (tier selection, background staging, namespace
// bookkeeping) happens behind this interface:
//
//   auto monarch = Monarch::Create(std::move(config));
//   ...
//   monarch->Read("imagenet/train-00001.tfrecord", offset, buffer);
//
// Lifecycle: Create() builds the hierarchy and populates the metadata
// container by walking the PFS dataset directory (the timed metadata-
// initialization phase). Reads then flow per §III-B: look up which of the
// file's chunks are staged, serve from their tier, and — first time a
// chunk is seen — claim it, read it, and have a background task copy it
// to the best tier with room (a file that fits one buffer is one chunk).
// Shutdown() (or the destructor) drains in-flight staging.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/metadata_container.h"
#include "core/peer_view.h"
#include "core/placement_handler.h"
#include "core/placement_policy.h"
#include "core/read_lease.h"
#include "core/resilience.h"
#include "core/storage_hierarchy.h"
#include "core/tier_health.h"
#include "obs/metrics_registry.h"
#include "pack/chunk_map.h"
#include "pack/pack_index.h"
#include "util/status.h"

namespace monarch::core {

/// One tier of the hierarchy, as the system designer specifies it before
/// the job starts (§III-B "MONARCH is tuned with two storage tiers...").
struct TierSpec {
  std::string name;
  storage::StorageEnginePtr engine;
  /// Byte budget on this tier (ignored for the PFS level).
  std::uint64_t quota_bytes = 0;
};

struct MonarchConfig {
  /// Writable cache tiers, fastest first (level 0, 1, ...).
  std::vector<TierSpec> cache_tiers;
  /// The PFS holding the dataset (becomes the read-only last level).
  TierSpec pfs;
  /// Optional cooperative peer-cache tier (ISSUE 4): an engine serving
  /// other nodes' staged copies over the interconnect, slotted directly
  /// above the PFS as a read-only level. `quota_bytes` is ignored (the
  /// bytes live on the peers), which are read chunk object by chunk
  /// object. Requires `peer_view`; cannot be combined with pack mode
  /// (`placement.pack.enabled`).
  std::optional<TierSpec> peer_tier;
  /// Cluster placement knowledge backing the peer tier: shard ownership
  /// for staging decisions, remote-copy lookups for the read path, the
  /// directory callbacks placement notifies, and the stage entry through
  /// which a peer's read (demand lane) or churn repair (prefetch lane)
  /// asks this node to stage a file it owns. Null = single node.
  PeerViewPtr peer_view;
  /// Directory on the PFS to index at startup.
  std::string dataset_dir;
  PlacementOptions placement;
  /// Fault-tolerance knobs: driver retry policy, per-tier circuit
  /// breakers, staged-copy verification (ISSUE 2; `[resilience]` in the
  /// INI dialect).
  ResilienceOptions resilience;
  /// Placement policy; FirstFit (the paper's) when null.
  PlacementPolicyPtr policy;
  /// Remove staged copies from the cache tiers on Shutdown (§III-A's
  /// ephemeral job model). Off by default so post-mortem inspection of
  /// the tiers remains possible.
  bool cleanup_staged_on_shutdown = false;
  /// Multi-tenant QoS (ISSUE 10). When set, every tier driver charges
  /// its bytes through this broker, attributed to the calling thread's
  /// ambient tenant (qos::CurrentTenant()) with `tenant` as fallback.
  /// Shared across instances so co-located jobs contend on one budget.
  qos::BandwidthBrokerPtr qos_broker;
  /// This instance's own identity: the default attribution for I/O
  /// issued with no ambient tenant installed.
  qos::TenantContext tenant;
};

/// Per-level share of read traffic, for the PFS-pressure tables.
struct LevelReadStats {
  std::string tier_name;
  std::uint64_t reads = 0;
  std::uint64_t bytes = 0;
  std::uint64_t occupancy_bytes = 0;
  std::uint64_t quota_bytes = 0;
  /// Tier health (core/tier_health.h): breaker state, times it opened,
  /// current error-rate estimate, and transient errors absorbed by the
  /// driver's retry loop.
  CircuitState circuit_state = CircuitState::kClosed;
  std::uint64_t circuit_opens = 0;
  double error_rate = 0;
  std::uint64_t retries = 0;
};

struct MonarchStats {
  std::vector<LevelReadStats> levels;  ///< indexed by hierarchy level
  PlacementStats placement;
  std::uint64_t files_indexed = 0;
  std::uint64_t dataset_bytes = 0;
  double metadata_init_seconds = 0;

  /// Demand reads served from a cache tier whose copy look-ahead over
  /// the run schedule (InstallRunSchedule), or a stretch read (pack
  /// mode), staged before the read arrived, or first served from the
  /// runs look-ahead read ahead into deposits.
  std::uint64_t prefetch_hits = 0;

  /// Degradation-ladder outcomes (ISSUE 2): reads that a cache tier
  /// failed to serve but the PFS rescued, broken down by cause.
  std::uint64_t degraded_fallbacks = 0;       ///< sum of the five below
  std::uint64_t fallbacks_circuit_open = 0;   ///< tier skipped, breaker open
  std::uint64_t fallbacks_tier_error = 0;     ///< tier read failed after retries
  std::uint64_t fallbacks_corruption = 0;     ///< staged copy failed its CRC
  std::uint64_t fallbacks_peer_miss = 0;      ///< peer copy vanished mid-read
  std::uint64_t fallbacks_peer_error = 0;     ///< peer read failed after retries

  /// Joins: reads bound for the PFS that instead waited on a copy of
  /// the file already in flight and were served from it — this node's
  /// own copy (in pack mode, the staging task holding the read's chunk
  /// claims), or (peer mode) the copy a non-owner asked the file's owner
  /// to stage.
  std::uint64_t copy_joins = 0;
  std::uint64_t peer_copy_joins = 0;

  /// Reads served, in part or whole, from a run's deposit: the verified
  /// bytes kept in memory for the run's next reader (a staged run's
  /// read-back, or a peer run fetched whole at its first slice).
  std::uint64_t deposit_hits = 0;

  /// Chunk-granularity read outcomes. A hit is a read fully
  /// served from resident chunks on a cache tier; a miss touched the PFS
  /// (and claimed the touched chunks for staging).
  std::uint64_t chunk_hits = 0;
  std::uint64_t chunk_misses = 0;

  /// Pack-index shape (zero when the dataset is not packed): container
  /// extents on the PFS, logical files inside them, and their bytes.
  std::uint64_t pack_extents = 0;
  std::uint64_t pack_logical_files = 0;
  std::uint64_t pack_logical_bytes = 0;
  /// Stretch reads: PFS reads of a whole-file pack miss that fetched the
  /// file and the extent neighbours it claimed; and the neighbours'
  /// bytes those reads fetched ahead of demand.
  std::uint64_t pack_stretch_reads = 0;
  std::uint64_t pack_readahead_bytes = 0;

  /// Reads served by the last level (the shared PFS).
  [[nodiscard]] std::uint64_t pfs_reads() const {
    return levels.empty() ? 0 : levels.back().reads;
  }
  [[nodiscard]] std::uint64_t total_reads() const {
    std::uint64_t total = 0;
    for (const auto& l : levels) total += l.reads;
    return total;
  }
};

class Monarch {
 public:
  /// Build the hierarchy, index the dataset, start the placement pool.
  static Result<std::unique_ptr<Monarch>> Create(MonarchConfig config);

  ~Monarch();
  Monarch(const Monarch&) = delete;
  Monarch& operator=(const Monarch&) = delete;

  /// The custom read operation that replaces POSIX pread (§III).
  /// Contrary to pread it takes the *filename*, not a descriptor. Returns
  /// bytes read (0 at EOF). Thread-safe; called concurrently by all of
  /// the framework's reader threads. Takes string_view — the hot path
  /// never copies the key. The one way in: every read, whatever level
  /// serves it, lands in `dst`.
  Result<std::size_t> Read(std::string_view name, std::uint64_t offset,
                           std::span<std::byte> dst);

  /// Pin `name` for one file visit (a MonarchSource holds this from its
  /// construction to its destruction): eviction skips the file's staged
  /// copy while the returned lease lives. The lease lends no bytes; it
  /// is empty when the file is not indexed.
  [[nodiscard]] ReadLease PinVisit(std::string_view name);

  /// File size from the virtual namespace (no backend round trip for
  /// indexed files).
  Result<std::uint64_t> FileSize(std::string_view name);

  /// Publish the WHOLE run's access order — every epoch's shuffled file
  /// list, in epoch order — before training starts: the one way to tell
  /// Monarch what is read next. When `[placement] prefetch_lookahead` is
  /// nonzero, look-ahead readies up to that many scheduled files ahead of
  /// the newest demand read on the PREFETCH lane, across epoch
  /// boundaries: it stages those this node owns and lacks, and reads the
  /// runs of those a local tier or a peer holds into deposits. Under an
  /// evicting policy the sequence also ranks victims farthest next use
  /// first (Belady), and the prefetch lane may evict residents needed
  /// later than its file. Replaces any previous schedule; ignored by a
  /// non-evicting policy without look-ahead.
  void InstallRunSchedule(const std::vector<std::vector<std::string>>& epochs);

  /// Stage the dataset into the cache tiers BEFORE training — the
  /// §III-A placement-timing alternative (i). Schedules a background
  /// copy for every indexed PFS-resident file (in namespace order) and,
  /// when `block` is true, waits for staging to finish. The paper
  /// chooses during-training placement instead to avoid delaying the
  /// first epoch; `bench/abl_design_choices` measures the trade.
  /// Returns the number of files scheduled.
  std::uint64_t Prestage(bool block = true);

  /// Re-publish every currently-placed local copy to the peer view — a
  /// revived node's surviving copies re-enter the cluster directory
  /// (its advertisements were retracted when it was marked down).
  /// Returns the number of copies re-advertised. No-op without a peer
  /// view.
  std::uint64_t ReadvertisePlacedCopies();

  /// Stop new placements (integration layer may call this at the end of
  /// the first epoch; optional — placement also self-terminates when the
  /// tiers fill or every file is placed).
  void StopPlacement() noexcept;

  /// Block until no background staging is in flight (tests/benches use
  /// this to observe the post-epoch-1 steady state deterministically).
  void DrainPlacements();

  /// Delete every staged copy from the writable tiers and reset their
  /// occupancy — the ephemeral teardown of §III-A (HPC jobs leave the
  /// node's scratch storage clean). Files revert to PFS-resident state,
  /// so the instance remains usable. Returns the number of copies
  /// removed. Called automatically by Shutdown() when
  /// MonarchConfig::cleanup_staged_on_shutdown is set.
  std::uint64_t CleanupStagedCopies();

  /// Drain staging and stop the pool. Idempotent; the destructor calls it.
  void Shutdown();

  [[nodiscard]] MonarchStats Stats() const;

  [[nodiscard]] const MetadataContainer& metadata() const noexcept {
    return metadata_;
  }
  /// What ranks evictions (PlacementHandler::EvictionRanking).
  [[nodiscard]] std::string EvictionRanking() const {
    return placement_->EvictionRanking();
  }
  [[nodiscard]] StorageHierarchy& hierarchy() noexcept { return *hierarchy_; }

  /// The loaded pack index, or null when the dataset directory carries
  /// no `.pack/index.mpki` (loose files) or pack mode is off.
  [[nodiscard]] const pack::PackIndexPtr& pack_index() const noexcept {
    return pack_index_;
  }

 private:
  explicit Monarch(MonarchConfig config,
                   std::unique_ptr<StorageHierarchy> hierarchy);

  /// Why a rung of the degradation ladder fell through to the PFS
  /// (indexes `fallbacks_`; MonarchStats reports each one).
  enum class FallbackCause {
    kCircuitOpen,
    kTierError,
    kCorruption,
    kPeerMiss,
    kPeerError,
    kCount
  };

  /// The caller's end of one read (monarch.cc): its buffer, and what
  /// served it.
  struct ReadAccess;

  /// What one read served: its bytes, and the level they came from.
  struct ServedRead {
    std::size_t bytes = 0;
    int level = -1;
  };

  /// The serve ladder (§III-B): serve from the tier holding the file's
  /// resident chunks. A read bound for the PFS first joins the staging
  /// task or the read holding its chunk claims; with nothing to join it
  /// misses (Miss). A failed tier rung counts its cause and misses too.
  /// Holds the file's eviction read-pin until it returns.
  Result<ServedRead> Ladder(std::string_view name, std::uint64_t offset,
                            ReadAccess& access);

  /// Tier and peer rungs: serve [offset, offset + length) from the level
  /// `level` — after running or waiting out a read-ahead of the file —
  /// one read per run segment touched (per chunk from a peer), decoding
  /// each chunk through the staging codec. A local run that fails
  /// verification is quarantined (so staging can retry it) and reported
  /// as kDataLoss; one whose object vanished is dropped and reported as
  /// kNotFound.
  Result<std::span<const std::byte>> ServeChunks(
      const FileInfoPtr& info, pack::ChunkMap& cm, int level,
      std::uint64_t offset, std::uint64_t length, ReadAccess& access);

  /// One file's claims in a miss, and its entry in a pack stretch.
  struct MissClaim {
    FileInfoPtr file;
    std::vector<std::uint32_t> chunks;
    const pack::PackEntry* entry = nullptr;
  };

  /// The one cold-read path (§III-B), for a read with nothing to join:
  /// claim what it will stage (ClaimMiss), read — the claimed pack
  /// stretch with one PFS read, else over the peer rung (an owner's
  /// replica, or a non-owner's joined copy) or from the PFS — then
  /// schedule the claims with their donation, or hand them back if the
  /// read failed. Sets `level` to the serving level. Returns nullopt,
  /// having read nothing, when `may_lose` and another claimer took the
  /// range first: the caller joins it.
  std::optional<Result<std::span<const std::byte>>> Miss(
      const FileInfoPtr& info, pack::ChunkMap& cm, std::uint64_t offset,
      ReadAccess& access, int& level, bool may_lose);

  /// A miss's claims, the read's own file first: the chunks it touches
  /// (covers in full without fetch_full_file_on_partial_read) — or, for
  /// a read of a whole packed file, the file and the free
  /// extent neighbours around it within one staging chunk, the tiers'
  /// free quota and the donation room. None when placement stopped, the
  /// file is parked or another node's, or its staging was refused this
  /// visit.
  std::vector<MissClaim> ClaimMiss(const FileInfoPtr& info,
                                   pack::ChunkMap& cm, std::uint64_t offset,
                                   const ReadAccess& access);

  /// Head of the ladder: look up (or lazily register) the file, stamp
  /// the access clock, and note the policy access.
  Result<FileInfoPtr> PrepareRead(std::string_view name, std::uint64_t offset);

  /// Tail of the ladder: serve counters, prefetch-hit bookkeeping,
  /// look-ahead top-up. `served` bytes were handed to the caller from
  /// `level`; `ahead`: the read was the first served from the file's
  /// look-ahead deposit of its first run.
  void FinishRead(const FileInfoPtr& info, int level, std::uint64_t offset,
                  std::uint64_t served, bool ahead);

  /// Run one join wait (`kind` "local" or "peer") under its own trace
  /// span; `wait` returns whether it waited, and only then is its
  /// duration recorded. Returns what `wait` did.
  bool TimedJoin(std::string_view name, const char* kind,
                 const std::function<bool()>& wait);

  /// The stage entry this instance registers with its peer view: a
  /// peer asks it, as the file's owner, to claim a demand copy, and
  /// replication repair after churn asks it for a prefetch copy. Returns
  /// the file's bytes when it claimed a copy (0: not owned, unindexed,
  /// placed or in flight, parked, or placement stopped).
  std::uint64_t StageForPeer(const std::string& name, StagingLane lane);

  /// Count one rung of the degradation ladder: a read the tier at `level`
  /// could not serve and the PFS absorbed.
  void CountDegradedFallback(FallbackCause cause, std::string_view name,
                             int level);

  /// Claim every chunk of `info` that is neither resident nor claimed
  /// for background staging on `lane`, and enqueue them.
  /// Skips files another node owns; `lookahead` marks a look-ahead
  /// claim. Returns false when nothing was claimed.
  bool ClaimAndSchedule(FileInfoPtr info, StagingLane lane, bool lookahead);

  /// Take the scheduled files the handler hands out (TakeAhead) and ready
  /// each on the prefetch lane: claim and stage what this node owns and
  /// lacks, read ahead what a tier here or a peer holds.
  void TopUpPrefetch();

  /// Read-ahead of one scheduled file into deposits (identity codec
  /// only): its resident runs from the local tier holding them, or,
  /// when another node owns it and advertises a copy, its runs over the
  /// peer rung. Skipped when the level's breaker is not closed.
  void ScheduleReadAhead(const FileInfoPtr& info);

  MonarchConfig config_;
  std::unique_ptr<StorageHierarchy> hierarchy_;
  MetadataContainer metadata_;
  std::unique_ptr<PlacementHandler> placement_;
  /// Set by Create when pack mode found `.pack/index.mpki` in the
  /// dataset dir (the PFS engine is then a PackedPfsEngine wrapper).
  pack::PackIndexPtr pack_index_;

  std::atomic<std::uint64_t> access_clock_{0};
  std::atomic<std::uint64_t> prefetch_hits_{0};

  /// reads/bytes served per hierarchy level (vector sized at Create).
  struct LevelCounters {
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> bytes{0};
  };
  std::vector<std::unique_ptr<LevelCounters>> served_;
  bool shut_down_ = false;

  // Hot-path instruments (docs/OBSERVABILITY.md §1, `monarch.read.*`).
  // Resolved once at construction so Read() touches only relaxed atomics
  // — the registry mutex is never taken on the read path.
  obs::Counter* read_requests_ = nullptr;
  obs::Counter* read_pfs_fallbacks_ = nullptr;
  obs::Counter* read_errors_ = nullptr;
  obs::Histogram* read_latency_ = nullptr;
  obs::Histogram* read_join_wait_ = nullptr;
  std::atomic<std::uint64_t> copy_joins_{0};
  std::atomic<std::uint64_t> peer_copy_joins_{0};
  std::atomic<std::uint64_t> deposit_hits_{0};

  // Chunk-read outcomes and per-cause fallback tallies; the
  // pull source exports them as `monarch.chunk.{hits,misses}` and
  // `monarch.read.degraded_fallbacks`.
  std::atomic<std::uint64_t> chunk_hits_{0};
  std::atomic<std::uint64_t> chunk_misses_{0};
  std::atomic<std::uint64_t> stretch_reads_{0};
  std::atomic<std::uint64_t> readahead_bytes_{0};
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(FallbackCause::kCount)>
      fallbacks_{};

  // Pull source exporting Stats() as `monarch.level.*`/`monarch.placement.*`
  // metrics. Last member: deregisters before the state its callback reads
  // (hierarchy_, served_, placement_, metadata_) is destroyed.
  obs::SourceRegistration obs_source_;
};

}  // namespace monarch::core

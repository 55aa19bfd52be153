#include "core/monarch.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/event_tracer.h"
#include "pack/packed_engine.h"
#include "obs/json.h"
#include "util/clock.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace monarch::core {

namespace {

/// Render one Stats() view as registry samples (the Monarch pull source).
std::vector<obs::MetricSample> StatsToSamples(const MonarchStats& stats) {
  std::vector<obs::MetricSample> out;
  out.reserve(stats.levels.size() * 6 + 48);
  auto sample = [&out](std::string name, std::string label,
                       obs::MetricKind kind, std::string unit,
                       std::uint64_t value, std::string help) {
    obs::MetricSample s;
    s.name = std::move(name);
    s.label = std::move(label);
    s.kind = kind;
    s.unit = std::move(unit);
    if (kind == obs::MetricKind::kGauge) {
      s.gauge = static_cast<std::int64_t>(value);
    } else {
      s.value = value;
    }
    s.help = std::move(help);
    out.push_back(std::move(s));
  };
  for (const LevelReadStats& level : stats.levels) {
    sample("monarch.level.reads", level.tier_name, obs::MetricKind::kCounter,
           "ops", level.reads, "reads served by this hierarchy level");
    sample("monarch.level.bytes", level.tier_name, obs::MetricKind::kCounter,
           "bytes", level.bytes, "bytes served by this hierarchy level");
    sample("monarch.level.occupancy_bytes", level.tier_name,
           obs::MetricKind::kGauge, "bytes", level.occupancy_bytes,
           "bytes currently staged on this level");
    sample("monarch.level.quota_bytes", level.tier_name,
           obs::MetricKind::kGauge, "bytes", level.quota_bytes,
           "configured byte budget of this level (0 = PFS, unbounded)");
    sample("monarch.level.health_state", level.tier_name,
           obs::MetricKind::kGauge, "state",
           static_cast<std::uint64_t>(level.circuit_state),
           "circuit-breaker state of this level (0 closed, 1 half-open, "
           "2 open)");
    sample("monarch.level.circuit_opens", level.tier_name,
           obs::MetricKind::kCounter, "events", level.circuit_opens,
           "times this level's circuit breaker tripped open");
  }
  sample("monarch.read.degraded_fallbacks", "", obs::MetricKind::kCounter,
         "ops", stats.degraded_fallbacks,
         "reads a cache tier failed to serve (error, open breaker, or corrupt "
         "copy) that the PFS absorbed");
  sample("monarch.read.copy_joins", "", obs::MetricKind::kCounter, "ops",
         stats.copy_joins,
         "reads bound for the PFS served instead from the staging task "
         "holding their chunk claims, after waiting for it");
  sample("monarch.read.peer_copy_joins", "", obs::MetricKind::kCounter, "ops",
         stats.peer_copy_joins,
         "non-owner reads bound for the PFS served instead over the peer rung "
         "from the copy they asked the owner to stage");
  sample("monarch.read.deposit_hits", "", obs::MetricKind::kCounter, "ops",
         stats.deposit_hits,
         "reads served from a staged run's deposit (its verified bytes held "
         "in memory) instead of a tier read");
  const PlacementStats& p = stats.placement;
  sample("monarch.placement.scheduled", "", obs::MetricKind::kCounter, "ops",
         p.scheduled, "background placement tasks enqueued");
  sample("monarch.placement.completed", "", obs::MetricKind::kCounter, "ops",
         p.completed, "files now served from upper tiers");
  sample("monarch.placement.rejected_no_space", "", obs::MetricKind::kCounter,
         "ops", p.rejected_no_space,
         "placements rejected because no tier had room");
  sample("monarch.placement.failed", "", obs::MetricKind::kCounter, "ops",
         p.failed, "placements aborted on backend errors");
  sample("monarch.placement.bytes_staged", "", obs::MetricKind::kCounter,
         "bytes", p.bytes_staged, "bytes copied into cache tiers");
  sample("monarch.placement.evictions", "", obs::MetricKind::kCounter, "ops",
         p.evictions, "placed files dropped to make room for incoming runs");
  sample("monarch.placement.evicted_bytes", "", obs::MetricKind::kCounter,
         "bytes", p.evicted_bytes, "bytes freed from cache tiers by evictions");
  sample("monarch.placement.eviction_refused", "", obs::MetricKind::kCounter,
         "ops", p.eviction_refused,
         "evictions the policy refused or that freed no usable room");
  sample("monarch.placement.retries", "", obs::MetricKind::kCounter, "ops",
         p.retries, "failed stagings left retryable for a later access");
  sample("monarch.placement.quarantined", "", obs::MetricKind::kCounter, "ops",
         p.quarantined,
         "staged runs deleted because their bytes failed CRC verification");
  sample("monarch.placement.abandoned", "", obs::MetricKind::kCounter, "ops",
         p.abandoned,
         "files marked unplaceable after exhausting max_placement_attempts");
  sample("monarch.placement.prefetch_scheduled", "", obs::MetricKind::kCounter,
         "ops", p.prefetch_scheduled,
         "look-ahead, read-ahead and repair tasks enqueued on the prefetch "
         "lane");
  sample("monarch.placement.prefetch_completed", "", obs::MetricKind::kCounter,
         "ops", p.prefetch_completed,
         "prefetch-lane and look-ahead copies published to a cache tier "
         "(promoted ones included), and read-aheads that left a deposit");
  sample("monarch.placement.prefetch_promoted", "", obs::MetricKind::kCounter,
         "ops", p.prefetch_promoted,
         "queued prefetches moved to the demand lane by an overtaking read");
  sample("monarch.placement.prefetch_cancelled", "", obs::MetricKind::kCounter,
         "ops", p.prefetch_cancelled,
         "prefetches dropped before staging (no space, stop, or shutdown)");
  sample("monarch.placement.prefetch_hits", "", obs::MetricKind::kCounter,
         "ops", stats.prefetch_hits,
         "demand reads served from a copy look-ahead or a stretch read "
         "staged, or first served from a run look-ahead read ahead");
  sample("monarch.placement.readahead_unread", "", obs::MetricKind::kCounter,
         "ops", p.readahead_unread,
         "look-ahead deposits (read-ahead or look-ahead staged runs) dropped "
         "or reclaimed before any read was served from them");
  sample("monarch.placement.chunks_copied", "", obs::MetricKind::kCounter,
         "objects", p.chunks_copied,
         "run objects written by the staging pipeline");
  sample("monarch.placement.donated_bytes", "", obs::MetricKind::kCounter,
         "bytes", p.donated_bytes,
         "triggering-read bytes reused by staging instead of re-read");
  sample("monarch.placement.donation_held_bytes", "", obs::MetricKind::kGauge,
         "bytes", p.donation_held_bytes,
         "triggering-read bytes queued staging tasks hold (capped by "
         "staging_buffer_bytes)");
  sample("monarch.placement.deposit_held_bytes", "", obs::MetricKind::kGauge,
         "bytes", p.deposit_held_bytes,
         "verified bytes of staged runs held for their next reader (shares "
         "staging_buffer_bytes with donations)");
  for (int c = 0; c < qos::kNumIoClasses; ++c) {
    sample("monarch.placement.queue_depth",
           qos::IoClassName(static_cast<qos::IoClass>(c)),
           obs::MetricKind::kGauge, "tasks",
           p.queue_depth[static_cast<std::size_t>(c)],
           "staging tasks waiting, by I/O class");
  }
  sample("qos.low_retention_resident_bytes", "", obs::MetricKind::kGauge,
         "bytes", p.low_retention_resident_bytes,
         "cache-tier bytes currently held by low-retention (scan) copies");
  sample("qos.cross_class_evictions", "", obs::MetricKind::kCounter, "ops",
         p.cross_class_evictions,
         "evictions where a low-retention tenant dropped a demand working-"
         "set copy (zero by construction)");
  sample("qos.scan_stage_refusals", "", obs::MetricKind::kCounter, "ops",
         p.scan_stage_refusals,
         "scan stagings refused by the low-retention resident cap");
  sample("monarch.placement.inflight_bytes", "", obs::MetricKind::kGauge,
         "bytes", p.inflight_bytes,
         "bytes of staging copies currently in flight across all tiers");
  sample("monarch.placement.buffer_pool_used_bytes", "",
         obs::MetricKind::kGauge, "bytes", p.buffer_pool_used_bytes,
         "chunk-buffer bytes currently leased by staging copies");
  sample("monarch.placement.buffer_pool_capacity_bytes", "",
         obs::MetricKind::kGauge, "bytes", p.buffer_pool_capacity_bytes,
         "configured chunk-buffer budget (staging_buffer_bytes)");
  // Pack gauges are emitted unconditionally (zeros without an index) so
  // the catalogue diff holds on unpacked instances too.
  sample("monarch.chunk.hits", "", obs::MetricKind::kCounter, "ops",
         stats.chunk_hits,
         "reads (not chunks) fully served from resident chunks on a cache "
         "tier");
  sample("monarch.chunk.misses", "", obs::MetricKind::kCounter, "ops",
         stats.chunk_misses,
         "reads (not chunks) that touched the PFS (non-resident chunks)");
  sample("monarch.chunk.staged", "", obs::MetricKind::kCounter, "ops",
         p.chunks_staged, "chunk copies published to cache tiers");
  sample("monarch.chunk.stored_bytes", "", obs::MetricKind::kCounter, "bytes",
         p.chunk_stored_bytes,
         "post-codec bytes written to cache tiers by chunk staging");
  sample("monarch.chunk.evicted", "", obs::MetricKind::kCounter, "ops",
         p.chunks_evicted,
         "chunks dropped from cache tiers (a whole run object at a time)");
  sample("monarch.pack.extents", "", obs::MetricKind::kGauge, "extents",
         stats.pack_extents,
         "container extents in the loaded pack index (0 = unpacked)");
  sample("monarch.pack.logical_files", "", obs::MetricKind::kGauge, "files",
         stats.pack_logical_files,
         "small logical files aggregated into pack extents");
  sample("monarch.pack.logical_bytes", "", obs::MetricKind::kGauge, "bytes",
         stats.pack_logical_bytes,
         "logical bytes addressed through the pack index");
  sample("monarch.pack.stretch_reads", "", obs::MetricKind::kCounter, "ops",
         stats.pack_stretch_reads,
         "PFS reads of a whole-file pack miss that fetched the file and its "
         "claimed extent neighbours at once");
  sample("monarch.pack.readahead_bytes", "", obs::MetricKind::kCounter,
         "bytes", stats.pack_readahead_bytes,
         "extent-neighbour bytes stretch reads fetched ahead of demand");
  sample("monarch.files_indexed", "", obs::MetricKind::kGauge, "files",
         stats.files_indexed, "files in the virtual namespace");
  sample("monarch.dataset_bytes", "", obs::MetricKind::kGauge, "bytes",
         stats.dataset_bytes, "total bytes of the indexed dataset");
  sample("monarch.metadata_init_us", "", obs::MetricKind::kGauge, "us",
         static_cast<std::uint64_t>(stats.metadata_init_seconds * 1e6),
         "duration of the startup metadata-initialization walk");
  return out;
}

/// Alloc-free (after warmup) chunk-object name for the read hot path:
/// one thread_local string is reused across calls, so serving a
/// resident chunk never heap-allocates in steady state.
const std::string& ChunkObjectNameTL(const std::string& file,
                                     std::uint32_t chunk) {
  thread_local std::string object;
  object.assign(file);
  object.append("#c");
  char index[16];
  const int len = std::snprintf(index, sizeof(index), "%u", chunk);
  object.append(index, static_cast<std::size_t>(len));
  return object;
}

}  // namespace

Result<std::unique_ptr<Monarch>> Monarch::Create(MonarchConfig config) {
  if (!config.pfs.engine) {
    return InvalidArgumentError("config.pfs.engine must be set");
  }
  if (config.cache_tiers.empty()) {
    return InvalidArgumentError(
        "config needs at least one cache tier above the PFS");
  }
  // The peer rung addresses a remote file's runs by offset, one chunk
  // per object; pack-mode runs hold several chunks behind a codec.
  if (config.placement.pack.enabled && config.peer_tier.has_value()) {
    return InvalidArgumentError(
        "pack mode (placement.pack.enabled) cannot be combined with a peer "
        "tier (peer_tier): packed runs are not addressable by offset");
  }

  // Small-file packing (ISSUE 9): when pack mode is on and the dataset
  // directory carries a pack index, wrap the PFS engine so the packed
  // logical files read/list/stat transparently out of their container
  // extents. kNotFound just means the dataset is loose files — chunk
  // staging still applies, only the packing layer is absent.
  pack::PackIndexPtr pack_index;
  if (config.placement.pack.enabled) {
    auto loaded = pack::PackIndex::Load(*config.pfs.engine,
                                        config.dataset_dir);
    if (loaded.ok()) {
      pack_index = std::move(loaded).value();
      config.pfs.engine = std::make_shared<pack::PackedPfsEngine>(
          config.pfs.engine, pack_index);
      MLOG_INFO << "monarch: pack index of '" << config.dataset_dir
                << "': " << pack_index->logical_files()
                << " logical files in " << pack_index->extent_count()
                << " extents";
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  std::vector<StorageDriverPtr> drivers;
  drivers.reserve(config.cache_tiers.size() + 2);
  for (TierSpec& tier : config.cache_tiers) {
    if (!tier.engine) {
      return InvalidArgumentError("cache tier '" + tier.name +
                                  "' has no engine");
    }
    if (tier.quota_bytes == 0) {
      return InvalidArgumentError("cache tier '" + tier.name +
                                  "' needs a nonzero quota");
    }
    drivers.push_back(std::make_unique<StorageDriver>(
        tier.name, tier.engine, tier.quota_bytes, /*read_only=*/false,
        config.resilience.retry, config.resilience.health));
  }
  // Cooperative peer tier (ISSUE 4): a read-only level directly above
  // the PFS serving other nodes' staged copies over the interconnect.
  // Quota 0 — the bytes are accounted on the owning nodes — and guarded
  // by retries and a circuit breaker like any tier, so a sick peer
  // degrades to the PFS instead of stalling the job.
  if (config.peer_tier.has_value()) {
    if (!config.peer_tier->engine) {
      return InvalidArgumentError("peer tier '" + config.peer_tier->name +
                                  "' has no engine");
    }
    if (config.peer_view == nullptr) {
      return InvalidArgumentError(
          "config.peer_tier requires config.peer_view (the cluster "
          "directory that knows which peers hold which files)");
    }
    drivers.push_back(std::make_unique<StorageDriver>(
        config.peer_tier->name.empty() ? "peer" : config.peer_tier->name,
        config.peer_tier->engine, /*quota_bytes=*/0, /*read_only=*/true,
        config.resilience.retry, config.resilience.health));
  }
  // The PFS gets the retry envelope too but no live breaker: it is the
  // authoritative copy, so routing around it is never an option
  // (StorageHierarchy::NextServingLevel always admits it regardless).
  drivers.push_back(std::make_unique<StorageDriver>(
      config.pfs.name.empty() ? "pfs" : config.pfs.name, config.pfs.engine,
      /*quota_bytes=*/0, /*read_only=*/true, config.resilience.retry,
      config.resilience.health));

  MONARCH_ASSIGN_OR_RETURN(auto hierarchy,
                           StorageHierarchy::Create(std::move(drivers)));

  std::unique_ptr<Monarch> monarch(
      new Monarch(std::move(config), std::move(hierarchy)));
  monarch->pack_index_ = std::move(pack_index);

  // Metadata initialization phase: walk the dataset directory on the PFS
  // and build the virtual namespace (§III-B startup flow). Retried on
  // transient failures — the walk is idempotent (Register dedups), so a
  // flaky PFS listing must not kill the job before it starts.
  Backoff backoff(monarch->config_.resilience.retry,
                  std::hash<std::string>{}(monarch->config_.dataset_dir));
  Result<std::uint64_t> populated = monarch->metadata_.Populate(
      monarch->hierarchy_->Pfs().engine(), monarch->config_.dataset_dir);
  while (!populated.ok() && IsRetryableError(populated.status())) {
    const auto delay = backoff.NextDelay();
    if (!delay.has_value()) break;
    MLOG_WARN << "monarch: metadata walk of '" << monarch->config_.dataset_dir
              << "' failed transiently (" << populated.status()
              << "); retrying";
    PreciseSleep(*delay);
    populated = monarch->metadata_.Populate(
        monarch->hierarchy_->Pfs().engine(), monarch->config_.dataset_dir);
  }
  MONARCH_ASSIGN_OR_RETURN(const std::uint64_t indexed, std::move(populated));
  MLOG_INFO << "monarch: indexed " << indexed << " files from '"
            << monarch->config_.dataset_dir << "' in "
            << monarch->metadata_.init_seconds() << "s";
  // Peers may now ask this node, as a file's owner, to stage it for
  // them. Shutdown unregisters the entry before the instance goes away.
  if (monarch->config_.peer_view != nullptr) {
    Monarch* self = monarch.get();
    monarch->config_.peer_view->SetStageEntry(
        [self](const std::string& name, StagingLane lane) {
          return self->StageForPeer(name, lane);
        });
  }
  return monarch;
}

Monarch::Monarch(MonarchConfig config,
                 std::unique_ptr<StorageHierarchy> hierarchy)
    : config_(std::move(config)), hierarchy_(std::move(hierarchy)) {
  if (!config_.policy) config_.policy = MakeFirstFitPolicy();
  placement_ = std::make_unique<PlacementHandler>(
      *hierarchy_, metadata_, std::move(config_.policy), config_.placement,
      config_.resilience, config_.peer_view);
  served_.reserve(hierarchy_->num_levels());
  for (std::size_t i = 0; i < hierarchy_->num_levels(); ++i) {
    served_.push_back(std::make_unique<LevelCounters>());
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  read_requests_ = registry.GetCounter(
      "monarch.read.requests", "ops", "Monarch::Read calls");
  read_pfs_fallbacks_ = registry.GetCounter(
      "monarch.read.pfs_fallbacks", "ops",
      "reads rerouted to the PFS after a tier copy vanished (eviction race)");
  read_errors_ = registry.GetCounter(
      "monarch.read.errors", "ops", "Monarch::Read calls that returned an error");
  read_latency_ = registry.GetHistogram(
      "monarch.read.latency_us", "us",
      "end-to-end Monarch::Read latency distribution");
  read_join_wait_ = registry.GetHistogram(
      "monarch.read.join_wait_us", "us",
      "time reads spent waiting on an in-flight copy they joined");
  // Multi-tenant QoS (ISSUE 10): the broker sits under every tier driver
  // so each byte — demand reads, staging writes, checkpoint drains — is
  // charged to the ambient tenant, with this instance's identity as the
  // fallback for unattributed I/O.
  if (config_.qos_broker != nullptr) {
    config_.qos_broker->RegisterTenant(config_.tenant);
    for (std::size_t i = 0; i < hierarchy_->num_levels(); ++i) {
      hierarchy_->Level(static_cast<int>(i))
          .SetQosBroker(config_.qos_broker, config_.tenant);
    }
  }
  obs_source_ = registry.AddSource([this] { return StatsToSamples(Stats()); });
}

Monarch::~Monarch() { Shutdown(); }

/// The caller's end of one read: its buffer, the bytes the read serves
/// into it, and where they came from. Every rung fills it the same way.
struct Monarch::ReadAccess {
  std::span<std::byte> dst;
  /// Bytes the read serves from a tier (Ladder sets it): dst's size,
  /// clipped at the end of the file.
  std::uint64_t length = 0;
  /// Whether a deposit served part of the read (ServeChunks), and
  /// whether this read was the first served from the file's look-ahead
  /// deposit of its first run (a prefetch hit).
  bool deposit = false;
  bool ahead = false;

  /// Up to `n` bytes of `object` at `offset` on `tier`, read into
  /// dst[pos, pos + n).
  Result<std::span<const std::byte>> Fetch(StorageDriver& tier,
                                           std::string_view object,
                                           std::uint64_t offset,
                                           std::size_t pos, std::uint64_t n) {
    const std::span<std::byte> into =
        dst.subspan(pos, static_cast<std::size_t>(n));
    auto read = tier.Read(object, offset, into);
    if (!read.ok()) return read.status();
    return std::span<const std::byte>(into.data(), read.value());
  }

  /// Held `bytes` (a deposit's) copied to dst[pos..).
  std::span<const std::byte> Take(const storage::ReadView& bytes,
                                  std::size_t pos) {
    const std::span<std::byte> into = dst.subspan(pos, bytes.size());
    std::copy(bytes.data().begin(), bytes.data().end(), into.begin());
    return into;
  }
};

Result<std::size_t> Monarch::Read(std::string_view name, std::uint64_t offset,
                                  std::span<std::byte> dst) {
  // Instrumentation is lock-free: the counters/histogram below are
  // relaxed atomics resolved at construction, and the span costs one
  // atomic load while tracing is disabled.
  obs::TraceSpan span("monarch.read", "core");
  if (read_requests_ != nullptr) read_requests_->Increment();
  const Stopwatch timer;
  ReadAccess access;
  access.dst = dst;
  auto served = Ladder(name, offset, access);
  if (!served.ok()) {
    if (read_errors_ != nullptr) read_errors_->Increment();
    return served.status();
  }
  if (read_latency_ != nullptr) read_latency_->Record(timer.Elapsed());
  if (span.active()) {
    const int level = served->level;
    const std::string tier =
        level == hierarchy_->pfs_level()    ? "pfs"
        : level == hierarchy_->peer_level() ? "peer"
                                            : hierarchy_->Level(level).name();
    span.set_args_json("\"level\":" + obs::JsonQuote(tier) +
                       ",\"deposit\":" + (access.deposit ? "true" : "false"));
  }
  return served->bytes;
}

Result<FileInfoPtr> Monarch::PrepareRead(std::string_view name,
                                         std::uint64_t offset) {
  FileInfoPtr info = metadata_.Lookup(name);
  if (!info) {
    // File not in the startup namespace: discover it lazily from the PFS
    // (keeps the middleware usable when files appear mid-job). This cold
    // path is the one place the read path materialises the key.
    const std::string owned(name);
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t size,
                             hierarchy_->Pfs().engine().FileSize(owned));
    metadata_.Register(owned, size);
    info = metadata_.Lookup(name);
    if (!info) return InternalError("metadata race on '" + owned + "'");
  }

  info->last_access.store(
      access_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);

  // Policy bookkeeping at file-visit granularity: the loader reads files
  // in chunks, so only the offset-0 read marks a new access (the run
  // schedule's clock and hotspot counters advance here).
  if (offset == 0) placement_->NoteAccess(*info);
  return info;
}

ReadLease Monarch::PinVisit(std::string_view name) {
  FileInfoPtr info = metadata_.Lookup(name);
  if (!info) return {};
  info->read_pins.fetch_add(1, std::memory_order_acq_rel);
  info->readers_coming.fetch_add(1, std::memory_order_acq_rel);
  return ReadLease(std::move(info));
}

Result<Monarch::ServedRead> Monarch::Ladder(std::string_view name,
                                            std::uint64_t offset,
                                            ReadAccess& access) {
  MONARCH_ASSIGN_OR_RETURN(FileInfoPtr info, PrepareRead(name, offset));

  // Pin the file for the duration of this read (ISSUE 6): an eviction
  // that claims it while the pin is held reverts and picks another
  // victim, so an in-flight demand read never loses its tier copy.
  info->read_pins.fetch_add(1, std::memory_order_acq_rel);
  struct PinGuard {
    FileInfo& file;
    ~PinGuard() { file.read_pins.fetch_sub(1, std::memory_order_acq_rel); }
  } pin_guard{*info};

  // ① Consult the file's chunk map: serve from its tier when every
  // chunk the request touches is resident.
  const int pfs = hierarchy_->pfs_level();
  pack::ChunkMap& cm =
      *info->EnsureChunkMap(placement_->options().pack.chunk_bytes);
  // A new visit begins: deposits an earlier visit already read from are
  // its leftovers, not this visit's.
  if (offset == 0 && info->HasDeposits()) {
    info->DropDeposits(/*served_only=*/true);
  }
  int level = pfs;
  std::uint64_t length = 0;
  if (offset < info->size) {
    length = std::min<std::uint64_t>(access.dst.size(), info->size - offset);
  }
  access.length = length;
  // A read at or past the end of a staged file is served (empty) by its
  // tier, without touching the PFS.
  if (cm.tier() >= 0 && (length > 0 ? cm.RangeResident(offset, length)
                                    : cm.ResidentCount() > 0)) {
    level = cm.tier();
  }
  // Join: a read whose chunks a staging task or another read has claimed
  // waits for those bytes and serves from their copy, so each chunk
  // crosses the PFS once — promoting the task first when it is a queued
  // prefetch (a neighbour woken when its stretch read queued it waits
  // again). A read with nothing to join misses: it claims, then reads. A
  // claim not yet joinable, or lost to another reader, is retried. Past
  // three waits or 64 retries the read misses without joining.
  bool joined = false;
  std::optional<Result<std::span<const std::byte>>> served;
  for (int waits = 0, retries = 0;
       length > 0 && level == pfs && waits < 3 && retries < 64;) {
    if (cm.RangeClaimed(offset, length)) {
      placement_->PromoteToDemand(info);
      if (TimedJoin(name, "local", [&] { return info->AwaitJoinable(); })) {
        joined = true;
        ++waits;
      } else {
        ++retries;
        std::this_thread::yield();
      }
    } else if (cm.RangeResident(offset, length)) {
      ++retries;  // published meanwhile: served from its tier below
    } else {
      served = Miss(info, cm, offset, access, level, /*may_lose=*/true);
      if (served.has_value()) break;
      ++retries;  // another reader won the claim: join it
    }
    if (cm.tier() >= 0 && cm.RangeResident(offset, length)) {
      level = cm.tier();
    }
  }
  // ② Read from that tier — unless its circuit breaker is open, in which
  // case the tier is skipped without a doomed attempt. The file's only
  // other copy is the authoritative one on the PFS, so every failed rung
  // misses: the caller sees bytes, never the tier's error. kDataLoss
  // means the copy failed verification and was dropped, kNotFound that
  // it vanished (eviction race or quarantine on another thread);
  // anything else is a tier fault that survived the driver's retries.
  if (!served.has_value() && level != pfs) {
    if (hierarchy_->NextServingLevel(level) != level) {
      CountDegradedFallback(FallbackCause::kCircuitOpen, name, level);
    } else if (auto tier = ServeChunks(info, cm, level, offset, length,
                                       access);
               tier.ok()) {
      served = std::move(tier);
    } else if (tier.status().code() == StatusCode::kDataLoss) {
      CountDegradedFallback(FallbackCause::kCorruption, name, level);
    } else if (tier.status().code() == StatusCode::kNotFound) {
      if (read_pfs_fallbacks_ != nullptr) read_pfs_fallbacks_->Increment();
    } else {
      CountDegradedFallback(FallbackCause::kTierError, name, level);
    }
    if (!served.has_value()) level = pfs;
  }
  if (!served.has_value()) {
    served = Miss(info, cm, offset, access, level, /*may_lose=*/false);
  }
  if (!served->ok()) return served->status();

  if (joined && level != pfs && level != hierarchy_->peer_level()) {
    copy_joins_.fetch_add(1, std::memory_order_relaxed);
  }
  if (access.deposit) deposit_hits_.fetch_add(1, std::memory_order_relaxed);
  FinishRead(info, level, offset, served->value().size(), access.ahead);
  return ServedRead{served->value().size(), level};
}

Result<std::span<const std::byte>> Monarch::ServeChunks(
    const FileInfoPtr& info, pack::ChunkMap& cm, int level,
    std::uint64_t offset, std::uint64_t length, ReadAccess& access) {
  // A read-ahead of the file is queued or running: run it here or wait
  // for it, so its runs are read once and serve this read from memory.
  if (info->reading_ahead.load(std::memory_order_acquire)) {
    TimedJoin(info->name, "ahead",
              [&] { return placement_->JoinReadAhead(info); });
  }
  StorageDriver& tier = hierarchy_->Level(level);
  const pack::Codec* codec = placement_->pack_codec();
  // A peer's runs are one uncompressed chunk each (peers exclude pack
  // mode): the object is named by the chunk and read at the in-chunk
  // offset, and its CRCs live with the peer.
  const bool remote = level == hierarchy_->peer_level();
  // access.deposit and access.ahead, set once the whole read is served.
  bool deposit_hit = false;
  bool ahead = false;
  const std::uint32_t last_touched = cm.ChunkOf(offset + length - 1);
  for (std::uint64_t pos = 0; pos < length;) {
    // One run segment: the touched chunks from here on that share a run
    // object. Their stored bytes sit back to back in it, so one tier
    // read fetches them all.
    const std::uint32_t first = cm.ChunkOf(offset + pos);
    const pack::ChunkMap::ChunkMeta head =
        remote ? pack::ChunkMap::ChunkMeta{.run_start = first}
               : cm.Meta(first);
    std::uint32_t last = first;
    while (!remote && last < last_touched &&
           cm.Meta(last + 1).run_start == head.run_start) {
      ++last;
    }
    const std::uint64_t begin = offset + pos;
    const std::uint64_t end = std::min(
        offset + length, cm.ChunkOffset(last) + cm.ChunkLogicalBytes(last));
    const std::string& object = ChunkObjectNameTL(info->name, head.run_start);
    Status fetched = Status::Ok();
    bool intact = false;
    if (codec == nullptr) {
      // Identity codec: the run holds the logical bytes, so the segment
      // is fetched straight into place — from the run's deposit when it
      // holds one (verified when it was staged), else from the tier.
      // Whole chunks read from the tier are verified against their
      // recorded CRC when verify_on_read is set (slices would need a
      // full-chunk readback to check); a short read is corrupt anyway.
      const auto n = static_cast<std::size_t>(end - begin);
      const std::uint64_t at =
          head.run_offset + (begin - cm.ChunkOffset(first));
      Deposit deposit;
      if (info->HasDeposits()) {
        deposit = info->ServeDeposit(head.run_start, at + n);
      }
      bool deposited = deposit.bytes.size() >= at + n;
      deposit_hit = deposit_hit || deposited;
      // The first serve of a file's look-ahead deposit of its first run is
      // the prefetch hit (read-ahead deposits a file's runs in order).
      ahead = ahead || (deposited && deposit.ahead && !deposit.served &&
                        head.run_start == 0);
      // One fabric transfer per peer run: a peer read at a run's start
      // that leaves part of it unread fetches the whole run into the
      // run's deposit (budget permitting), and serves its slice from it,
      // as this node's next slices will be.
      const std::uint32_t run_bytes = cm.ChunkLogicalBytes(first);
      if (!deposited && remote && at == 0 && n < run_bytes) {
        auto kept = placement_->DepositRun(info, level, head.run_start,
                                           run_bytes, {}, /*ahead=*/false);
        if (!kept.ok()) return kept.status();  // a peer run drops nothing
        if (kept.value()) {
          deposit = info->ServeDeposit(head.run_start, at + n);
          deposited = deposit.bytes.size() >= at + n;
        }
      }
      auto got = deposited
                     ? Result<std::span<const std::byte>>(access.Take(
                           deposit.bytes.Slice(static_cast<std::size_t>(at),
                                               n),
                           static_cast<std::size_t>(pos)))
                     : access.Fetch(tier, object, at,
                                    static_cast<std::size_t>(pos), n);
      if (!got.ok()) {
        fetched = got.status();
      } else {
        intact = got.value().size() == n;
        for (std::uint32_t c = first; intact && !remote && !deposited &&
                                      config_.resilience.verify_on_read &&
                                      c <= last;
             ++c) {
          const std::uint64_t chunk_begin = cm.ChunkOffset(c);
          const std::uint32_t logical_n = cm.ChunkLogicalBytes(c);
          if (chunk_begin < begin || chunk_begin + logical_n > end) continue;
          intact = Crc32c(got.value().subspan(
                       static_cast<std::size_t>(chunk_begin - begin),
                       logical_n)) == cm.Meta(c).crc_logical;
        }
      }
    } else {
      // Compressed run: pull the segment's stored bytes through a
      // reusable per-thread scratch buffer, then per chunk verify the
      // stored-side CRC (a corrupt stream must never reach the decoder),
      // decode — straight into the destination when the request covers
      // the whole chunk — and verify the logical side.
      thread_local std::vector<std::byte> stored;
      thread_local std::vector<std::byte> scratch;
      const pack::ChunkMap::ChunkMeta tail = cm.Meta(last);
      stored.resize(std::max<std::uint64_t>(
          std::uint64_t{tail.run_offset} + tail.stored_bytes,
          head.run_offset) - head.run_offset);
      auto got = tier.Read(object, head.run_offset, stored);
      if (!got.ok()) {
        fetched = got.status();
      } else {
        intact = got.value() == stored.size();
        for (std::uint32_t c = first; intact && c <= last; ++c) {
          const pack::ChunkMap::ChunkMeta meta = cm.Meta(c);
          const std::uint64_t chunk_begin = cm.ChunkOffset(c);
          const std::uint32_t logical_n = cm.ChunkLogicalBytes(c);
          const std::uint64_t from = std::max(begin, chunk_begin);
          const auto n = static_cast<std::size_t>(
              std::min<std::uint64_t>(end, chunk_begin + logical_n) - from);
          const std::size_t at = meta.run_offset - head.run_offset;
          intact = at + meta.stored_bytes <= stored.size();
          if (!intact) break;
          const std::span<const std::byte> chunk_stored =
              std::span<const std::byte>(stored).subspan(at,
                                                         meta.stored_bytes);
          if (Crc32c(chunk_stored) != meta.crc_stored) {
            intact = false;
            break;
          }
          const obs::TraceSpan span("pack.decompress", "core");
          const bool whole = n == logical_n;
          const std::span<std::byte> out =
              access.dst.subspan(static_cast<std::size_t>(from - offset), n);
          if (!whole) scratch.resize(logical_n);
          const std::span<std::byte> logical =
              whole ? out : std::span<std::byte>(scratch);
          intact = codec->Decode(chunk_stored, logical).ok() &&
                   Crc32c(std::span<const std::byte>(logical)) ==
                       meta.crc_logical;
          if (intact && !whole) {
            std::copy_n(logical.begin() +
                            static_cast<std::ptrdiff_t>(from - chunk_begin),
                        n, out.begin());
          }
        }
      }
    }
    // Drop a local run whose object is corrupt or gone, so a later miss
    // re-stages it from the authoritative bytes: corruption degrades to
    // PFS performance, never wrong bytes, and a vanished object does not
    // stay "resident" forever. Other tier faults leave the run alone.
    if (fetched.code() == StatusCode::kNotFound) {
      if (!remote) placement_->DropChunkRun(info, first, /*corrupt=*/false);
      return fetched;
    }
    if (!fetched.ok()) return fetched;
    if (!intact) {
      MLOG_WARN << "staged run '" << object << "' on tier '" << tier.name()
                << "' failed verification; dropping it";
      if (!remote) placement_->DropChunkRun(info, first, /*corrupt=*/true);
      return DataLossError("staged run '" + object +
                           "' failed verification");
    }
    pos = end - offset;
  }
  access.deposit = deposit_hit;
  access.ahead = ahead;
  return std::span<const std::byte>(
      access.dst.first(static_cast<std::size_t>(length)));
}

std::optional<Result<std::span<const std::byte>>> Monarch::Miss(
    const FileInfoPtr& info, pack::ChunkMap& cm, std::uint64_t offset,
    ReadAccess& access, int& level, bool may_lose) {
  const int pfs = hierarchy_->pfs_level();
  const int peer = hierarchy_->peer_level();
  const std::uint64_t length = access.length;
  // ① Claim before reading, so a read of the same chunks that arrives
  // meanwhile — here, or a peer's stage request — joins these bytes
  // instead of reading them a second time.
  std::vector<MissClaim> claims = ClaimMiss(info, cm, offset, access);
  if (claims.empty() && may_lose &&
      (cm.RangeClaimed(offset, length) || cm.RangeResident(offset, length))) {
    return std::nullopt;
  }

  // ② Read. A claimed stretch is charged once, whole, and read with one
  // PFS read; the donations are views of it, and the charge returns when
  // the last of their tasks finishes. A stretch that cannot be charged
  // or read hands its neighbours back, and the file is read alone.
  level = pfs;
  Result<std::span<const std::byte>> served = std::span<const std::byte>{};
  storage::ReadView stretch;
  std::uint64_t begin = 0;
  if (!claims.empty() && claims[0].entry != nullptr) {
    std::uint64_t end = 0;
    begin = UINT64_MAX;
    for (const MissClaim& c : claims) {
      begin = std::min(begin, c.entry->offset);
      end = std::max(end, c.entry->offset + c.entry->length);
    }
    const auto size = static_cast<std::size_t>(end - begin);
    PlacementHandler::BudgetCharge charge =
        placement_->Charge(size, PlacementHandler::kDonation);
    std::shared_ptr<std::byte[]> buffer;
    if (charge) {
      buffer = std::make_shared_for_overwrite<std::byte[]>(size);
      auto read = hierarchy_->Pfs().Read(
          pack_index_->ExtentPathOf(*claims[0].entry), begin,
          {buffer.get(), size});
      if (!read.ok() || read.value() != size) buffer.reset();
    }
    if (buffer != nullptr) {
      stretch = PlacementHandler::Held(
          storage::ReadView({buffer.get(), size}, buffer, /*zero_copy=*/false),
          std::move(charge));
      stretch_reads_.fetch_add(1, std::memory_order_relaxed);
      readahead_bytes_.fetch_add(size - info->size, std::memory_order_relaxed);
      const std::span<const std::byte> own = stretch.data().subspan(
          static_cast<std::size_t>(claims[0].entry->offset - begin),
          static_cast<std::size_t>(info->size));
      std::copy(own.begin(), own.end(), access.dst.begin());
      served = std::span<const std::byte>(access.dst.first(own.size()));
    } else {
      for (std::size_t i = 1; i < claims.size(); ++i) {
        placement_->ReleaseClaims(*claims[i].file, claims[i].chunks);
      }
      claims.resize(1);
      claims[0].entry = nullptr;
    }
  }
  if (stretch.empty()) {
    // Peer rung: a copy another node advertises is closer over the
    // interconnect than the shared PFS, while the peer breaker admits
    // requests.
    if (peer >= 0) {
      PeerView& view = *config_.peer_view;
      bool remote = view.HasRemoteCopy(info->name);
      // Cluster join: a non-owner asks the file's owner to stage it and
      // waits for that copy rather than pulling the file from the PFS.
      bool joined = false;
      if (!remote && !view.ShouldStageLocally(info->name) &&
          hierarchy_->Level(peer).health().AllowRequest()) {
        joined = true;
        TimedJoin(info->name, "peer", [&] {
          view.RequestOwnerStage(info->name);
          return view.AwaitRemoteCopy(info->name);
        });
        remote = view.HasRemoteCopy(info->name);
      }
      if (remote && !hierarchy_->Level(peer).health().AllowRequest()) {
        CountDegradedFallback(FallbackCause::kCircuitOpen, info->name, peer);
      } else if (remote) {
        served = ServeChunks(info, cm, peer, offset, length, access);
        if (served.ok()) {
          level = peer;
          if (joined) peer_copy_joins_.fetch_add(1, std::memory_order_relaxed);
        } else {  // counted apart from tier failures
          CountDegradedFallback(served.status().code() == StatusCode::kNotFound
                                    ? FallbackCause::kPeerMiss
                                    : FallbackCause::kPeerError,
                                info->name, peer);
        }
      }
    }
    if (level == pfs) {
      served = access.Fetch(hierarchy_->Level(pfs), info->name, offset, 0,
                            access.dst.size());
    }
  }

  // ③ Schedule the claims with their donation — a stretch's views, or a
  // copy of the read's bytes inside its claimed chunks, so staging reads
  // only the rest of them from the PFS — or hand them back.
  if (!served.ok()) {
    for (const MissClaim& c : claims) {
      placement_->ReleaseClaims(*c.file, c.chunks);
    }
    return served;
  }
  for (std::size_t i = 0; i < claims.size(); ++i) {
    MissClaim& c = claims[i];
    PlacementHandler::Donation donation;
    if (!stretch.empty()) {
      donation = {0, stretch.Slice(
                         static_cast<std::size_t>(c.entry->offset - begin),
                         static_cast<std::size_t>(c.entry->length))};
    } else {
      const std::uint64_t from =
          std::max(offset, cm.ChunkOffset(c.chunks.front()));
      const std::uint64_t to =
          std::min(offset + served.value().size(),
                   cm.ChunkOffset(c.chunks.back()) +
                       cm.ChunkLogicalBytes(c.chunks.back()));
      if (from < to) {
        donation = placement_->Donate(
            from, served.value().subspan(
                      static_cast<std::size_t>(from - offset),
                      static_cast<std::size_t>(to - from)));
      }
    }
    if (i > 0) c.file->prefetched.store(true, std::memory_order_release);
    placement_->ScheduleChunkPlacement(
        std::move(c.file), std::move(c.chunks), std::move(donation),
        i == 0 ? StagingLane::kDemand : StagingLane::kPrefetch,
        i == 0 ? static_cast<std::uint32_t>(claims.size() - 1) : 0);
  }
  return served;
}

std::vector<Monarch::MissClaim> Monarch::ClaimMiss(const FileInfoPtr& info,
                                                   pack::ChunkMap& cm,
                                                   std::uint64_t offset,
                                                   const ReadAccess& access) {
  const std::uint64_t length = access.length;
  if (length == 0 || placement_->stopped() ||
      info->state.load(std::memory_order_acquire) ==
          PlacementState::kUnplaceable) {
    return {};
  }
  // Shard ownership: with a peer view installed, each node stages only
  // the files it owns.
  if (config_.peer_view != nullptr &&
      !config_.peer_view->ShouldStageLocally(info->name)) {
    return {};
  }
  // An offset-0 read (file open) re-arms a file whose last demand
  // staging was refused by the eviction policy; later reads of the same
  // pass stay latched, so one open retries at most once.
  if (offset == 0) {
    info->stage_refused.store(false, std::memory_order_release);
  } else if (info->stage_refused.load(std::memory_order_acquire)) {
    return {};
  }
  std::vector<MissClaim> claims;
  // Pack shape: a read of a whole packed file claims it and
  // grows the stretch [begin, end) of its extent one neighbour at a
  // time, alternating sides. A side stops at the extent's edge, at the
  // budget (one staging buffer, the tiers' free quota and the staging
  // memory a donation may take), or at a neighbour that is resident,
  // claimed or not in the namespace.
  const qos::TenantContext* tenant = qos::CurrentTenant();
  const pack::PackEntry* entry =
      pack_index_ == nullptr || offset != 0 ||
              access.dst.size() < info->size ||
              (tenant != nullptr && tenant->low_retention)
          ? nullptr
          : pack_index_->Find(info->name);
  if (entry != nullptr) {
    const std::uint64_t budget = std::min(
        {placement_->buffer_pool().chunk_bytes(),
         hierarchy_->TotalWritableFreeBytes(), placement_->DonationRoom()});
    const std::span<const pack::ExtentMember> members =
        pack_index_->ExtentMembers(entry->extent);
    std::uint64_t begin = entry->offset;
    std::uint64_t end = entry->offset;
    auto claim = [&](std::uint32_t slot) {
      const pack::PackEntry* at = members[slot].entry;
      const std::uint64_t from = std::min(begin, at->offset);
      const std::uint64_t to = std::max(end, at->offset + at->length);
      FileInfoPtr file = metadata_.Lookup(members[slot].name);
      if (to - from > budget || file == nullptr) return false;
      std::vector<std::uint32_t> chunks = placement_->Claim(
          file, 0, UINT32_MAX, /*whole=*/true, /*joinable=*/true);
      if (chunks.empty()) return false;
      claims.push_back({std::move(file), std::move(chunks), at});
      begin = from;
      end = to;
      return true;
    };
    std::uint32_t lo = entry->slot;
    std::uint32_t hi = entry->slot;
    for (bool left = claim(hi), right = left; left || right;) {
      right = right && hi + 1 < members.size() && claim(hi + 1);
      if (right) ++hi;
      left = left && lo > 0 && claim(lo - 1);
      if (left) --lo;
    }
  }
  // Loose shape — or a packed file its stretch could not claim whole
  // (one claimed in part is joined instead): the chunks the read touched
  // (§III-B: a partial read still stages the chunks it touched), or with
  // fetch_full_file_on_partial_read off only those it covers in full.
  if (claims.empty() &&
      (entry == nullptr || !cm.RangeClaimed(offset, length))) {
    const std::uint64_t end = offset + length;
    std::uint32_t first = cm.ChunkOf(offset);
    std::uint32_t stop = cm.ChunkOf(end - 1) + 1;
    if (!placement_->options().fetch_full_file_on_partial_read) {
      if (cm.ChunkOffset(first) < offset) ++first;
      if (cm.ChunkOffset(stop - 1) + cm.ChunkLogicalBytes(stop - 1) > end) {
        --stop;
      }
    }
    if (first < stop) {
      std::vector<std::uint32_t> chunks = placement_->Claim(
          info, first, stop, /*whole=*/false, /*joinable=*/true);
      if (!chunks.empty()) claims.push_back({info, std::move(chunks)});
    }
  }
  return claims;
}

void Monarch::FinishRead(const FileInfoPtr& info, int level,
                         std::uint64_t offset, std::uint64_t served,
                         bool ahead) {
  const int pfs = hierarchy_->pfs_level();
  const int peer = hierarchy_->peer_level();

  auto& counters = *served_[static_cast<std::size_t>(level)];
  counters.reads.fetch_add(1, std::memory_order_relaxed);
  counters.bytes.fetch_add(served, std::memory_order_relaxed);

  if (level != pfs && (info->prefetched.exchange(false) || ahead)) {
    // First demand read of a copy that look-ahead staged, or first served
    // from a run it read ahead: the prefetch paid off before demand ever
    // touched the PFS, the tier or the fabric.
    prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  // A read from a local tier hit its resident chunks; one from the PFS
  // missed them (and claimed them before it read, in Miss).
  if (level != pfs && level != peer) {
    chunk_hits_.fetch_add(1, std::memory_order_relaxed);
  } else if (level == pfs) {
    chunk_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  // Keep the look-ahead window rolling: this visit moved the schedule
  // clock (PrepareRead), so claim the files now within reach of it.
  if (offset == 0 && placement_->options().prefetch_lookahead > 0) {
    TopUpPrefetch();
  }
}

bool Monarch::TimedJoin(std::string_view name, const char* kind,
                        const std::function<bool()>& wait) {
  obs::TraceSpan span("monarch.read.join", "core");
  if (span.active()) {
    span.set_args_json("\"file\":" + obs::JsonQuote(name) + ",\"kind\":\"" +
                       kind + "\"");
  }
  const Stopwatch timer;
  if (!wait()) return false;
  if (read_join_wait_ != nullptr) read_join_wait_->Record(timer.Elapsed());
  return true;
}

std::uint64_t Monarch::StageForPeer(const std::string& name,
                                    StagingLane lane) {
  if (placement_->stopped()) return 0;
  FileInfoPtr info = metadata_.Lookup(name);
  if (info == nullptr) return 0;
  // A peer's demand held as a queued prefetch is promoted, as a local
  // read would, so the copy becomes joinable and the peer waits for it
  // instead of the PFS. Repair rides the prefetch lane: the staging
  // queue serves it only when no demand-band work is queued.
  const bool claimed =
      ClaimAndSchedule(info, lane, /*lookahead=*/false) ||
      (lane == StagingLane::kDemand && placement_->PromoteToDemand(info));
  return claimed ? info->size : 0;
}

void Monarch::CountDegradedFallback(FallbackCause cause, std::string_view name,
                                    int level) {
  static constexpr const char* kCauseNames[] = {
      "circuit_open", "tier_error", "corruption", "peer_miss", "peer_error"};
  const auto index = static_cast<std::size_t>(cause);
  fallbacks_[index].fetch_add(1, std::memory_order_relaxed);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant(
        "monarch.read.fallback", "resilience",
        "\"file\":" + obs::JsonQuote(name) + ",\"cause\":\"" +
            kCauseNames[index] + "\",\"tier\":" +
            obs::JsonQuote(hierarchy_->Level(level).name()));
  }
}

void Monarch::InstallRunSchedule(
    const std::vector<std::vector<std::string>>& epochs) {
  std::vector<std::string> sequence;
  std::size_t total = 0;
  for (const auto& epoch : epochs) total += epoch.size();
  sequence.reserve(total);
  for (const auto& epoch : epochs) {
    sequence.insert(sequence.end(), epoch.begin(), epoch.end());
  }
  placement_->InstallSchedule(sequence);
  if (placement_->options().prefetch_lookahead > 0) TopUpPrefetch();
}

void Monarch::TopUpPrefetch() {
  if (placement_->stopped()) return;
  for (const std::string& name : placement_->TakeAhead(static_cast<
           std::uint64_t>(placement_->options().prefetch_lookahead))) {
    // Unknown files cannot be prefetched. What this node owns and lacks
    // is staged; what it or a peer already holds is read ahead.
    if (FileInfoPtr info = metadata_.Lookup(name);
        info != nullptr &&
        !ClaimAndSchedule(info, StagingLane::kPrefetch, /*lookahead=*/true)) {
      ScheduleReadAhead(info);
    }
  }
}

void Monarch::ScheduleReadAhead(const FileInfoPtr& info) {
  // Deposits hold a run's logical bytes: identity codec only.
  if (placement_->pack_codec() != nullptr) return;
  const pack::ChunkMap& cm =
      *info->EnsureChunkMap(placement_->options().pack.chunk_bytes);
  const int peer = hierarchy_->peer_level();
  int level = -1;
  if (cm.tier() >= 0 && cm.ResidentCount() > 0) {
    level = cm.tier();
  } else if (peer >= 0 && !config_.peer_view->ShouldStageLocally(info->name) &&
             config_.peer_view->HasRemoteCopy(info->name)) {
    level = peer;
  }
  // A level whose breaker is not closed is left to the read ladder.
  if (level >= 0 &&
      hierarchy_->Level(level).health().state() == CircuitState::kClosed) {
    placement_->ScheduleReadAhead(info, level);
  }
}

bool Monarch::ClaimAndSchedule(FileInfoPtr info, StagingLane lane,
                               bool lookahead) {
  // Shard ownership (ISSUE 4): each node stages only its own shard; the
  // rest of the dataset reaches it through the peer tier.
  if (config_.peer_view != nullptr &&
      !config_.peer_view->ShouldStageLocally(info->name)) {
    return false;
  }
  // Claim every chunk that is neither resident nor claimed; a demand
  // copy is joinable from its claims on.
  std::vector<std::uint32_t> chunks =
      placement_->Claim(info, 0, UINT32_MAX, /*whole=*/false,
                        /*joinable=*/lane == StagingLane::kDemand);
  if (chunks.empty()) return false;
  if (lookahead) info->prefetched.store(true, std::memory_order_release);
  placement_->ScheduleChunkPlacement(std::move(info), std::move(chunks), {},
                                     lane);
  return true;
}

Result<std::uint64_t> Monarch::FileSize(std::string_view name) {
  if (FileInfoPtr info = metadata_.Lookup(name)) return info->size;
  return hierarchy_->Pfs().engine().FileSize(std::string(name));
}

std::uint64_t Monarch::Prestage(bool block) {
  std::uint64_t scheduled = 0;
  for (const auto& entry : metadata_.Snapshot()) {
    FileInfoPtr info = metadata_.Lookup(entry.name);
    if (info && ClaimAndSchedule(std::move(info), StagingLane::kDemand,
                                 /*lookahead=*/false)) {
      ++scheduled;
    }
  }
  if (block) placement_->Drain();
  return scheduled;
}

std::uint64_t Monarch::ReadvertisePlacedCopies() {
  if (config_.peer_view == nullptr) return 0;
  std::uint64_t readvertised = 0;
  for (const auto& entry : metadata_.Snapshot()) {
    if (entry.state != PlacementState::kPlaced) continue;
    FileInfoPtr info = metadata_.Lookup(entry.name);
    // Peers read only fully resident files.
    const pack::ChunkMap* cm = info ? info->chunk_map() : nullptr;
    if (cm == nullptr || cm->ResidentCount() != cm->num_chunks()) continue;
    config_.peer_view->OnStaged(entry.name, cm->tier());
    ++readvertised;
  }
  return readvertised;
}

void Monarch::StopPlacement() noexcept {
  placement_->StopScheduling();
  // Speculative work is pointless once placement stops: drop queued
  // prefetches so the files return to the retryable PFS-only state.
  placement_->CancelPrefetches();
}

void Monarch::DrainPlacements() { placement_->Drain(); }

std::uint64_t Monarch::CleanupStagedCopies() {
  // Quiesce staging first so no copy lands after its delete.
  placement_->StopScheduling();
  placement_->Drain();

  std::uint64_t removed = 0;
  for (const auto& entry : metadata_.Snapshot()) {
    if (entry.state != PlacementState::kPlaced) continue;
    FileInfoPtr info = metadata_.Lookup(entry.name);
    if (info && placement_->CleanupCopy(info)) ++removed;
  }
  placement_->DropDeposits();  // peer runs' deposits too
  return removed;
}

void Monarch::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // No more stage requests from peers; waits out any in flight.
  if (config_.peer_view != nullptr) config_.peer_view->SetStageEntry(nullptr);
  if (config_.cleanup_staged_on_shutdown) CleanupStagedCopies();
  placement_->StopScheduling();
  // Don't make shutdown wait on speculative copies that nothing will read.
  placement_->CancelPrefetches();
  placement_->Drain();
  placement_->DropDeposits();
}

MonarchStats Monarch::Stats() const {
  MonarchStats stats;
  stats.levels.reserve(hierarchy_->num_levels());
  for (std::size_t i = 0; i < hierarchy_->num_levels(); ++i) {
    const StorageDriver& driver =
        hierarchy_->Level(static_cast<int>(i));
    LevelReadStats level;
    level.tier_name = driver.name();
    level.reads = served_[i]->reads.load(std::memory_order_relaxed);
    level.bytes = served_[i]->bytes.load(std::memory_order_relaxed);
    level.occupancy_bytes = driver.occupancy_bytes();
    level.quota_bytes = driver.quota_bytes();
    level.circuit_state = driver.health().state();
    level.circuit_opens = driver.health().circuit_opens();
    level.error_rate = driver.health().error_rate();
    level.retries = driver.retries();
    stats.levels.push_back(std::move(level));
  }
  stats.placement = placement_->Stats();
  stats.prefetch_hits = prefetch_hits_.load(std::memory_order_relaxed);
  const auto fallbacks = [this](FallbackCause cause) {
    return fallbacks_[static_cast<std::size_t>(cause)].load(
        std::memory_order_relaxed);
  };
  stats.fallbacks_circuit_open = fallbacks(FallbackCause::kCircuitOpen);
  stats.fallbacks_tier_error = fallbacks(FallbackCause::kTierError);
  stats.fallbacks_corruption = fallbacks(FallbackCause::kCorruption);
  stats.fallbacks_peer_miss = fallbacks(FallbackCause::kPeerMiss);
  stats.fallbacks_peer_error = fallbacks(FallbackCause::kPeerError);
  stats.degraded_fallbacks =
      stats.fallbacks_circuit_open + stats.fallbacks_tier_error +
      stats.fallbacks_corruption + stats.fallbacks_peer_miss +
      stats.fallbacks_peer_error;
  stats.copy_joins = copy_joins_.load(std::memory_order_relaxed);
  stats.peer_copy_joins = peer_copy_joins_.load(std::memory_order_relaxed);
  stats.deposit_hits = deposit_hits_.load(std::memory_order_relaxed);
  stats.chunk_hits = chunk_hits_.load(std::memory_order_relaxed);
  stats.chunk_misses = chunk_misses_.load(std::memory_order_relaxed);
  stats.pack_stretch_reads = stretch_reads_.load(std::memory_order_relaxed);
  stats.pack_readahead_bytes =
      readahead_bytes_.load(std::memory_order_relaxed);
  if (pack_index_ != nullptr) {
    stats.pack_extents = pack_index_->extent_count();
    stats.pack_logical_files = pack_index_->logical_files();
    stats.pack_logical_bytes = pack_index_->logical_bytes();
  }
  stats.files_indexed = metadata_.FileCount();
  stats.dataset_bytes = metadata_.TotalBytes();
  stats.metadata_init_seconds = metadata_.init_seconds();
  return stats;
}

}  // namespace monarch::core

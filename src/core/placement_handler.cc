#include "core/placement_handler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/event_tracer.h"
#include "obs/json.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace monarch::core {

namespace {

const char* LaneName(StagingLane lane) {
  return lane == StagingLane::kDemand ? "demand" : "prefetch";
}

/// The scheduling thread's ambient tenant, or the process default
/// (training class) when none is installed — QoS-off callers never pay
/// for attribution.
qos::TenantContext SnapshotTenant() {
  const qos::TenantContext* ambient = qos::CurrentTenant();
  return ambient != nullptr ? *ambient : qos::TenantContext{};
}

}  // namespace

int PlacementHandler::TaskClass(const StagingTask& task) noexcept {
  if (task.lane == StagingLane::kPrefetch) {
    return qos::ClassIndex(qos::IoClass::kPrefetch);
  }
  return qos::ClassIndex(task.tenant.io_class);
}

double PlacementHandler::TaskCost(const StagingTask& task) const noexcept {
  if (task.chunks.empty()) {
    return static_cast<double>(task.file->size);
  }
  return static_cast<double>(task.chunks.size()) *
         static_cast<double>(
             std::max<std::uint64_t>(1, options_.pack.chunk_bytes));
}

void PlacementHandler::PushLocked(StagingTask task) {
  const int cls = TaskClass(task);
  const double cost = TaskCost(task);
  queue_.Push(cls, cost, std::move(task));
}

void PlacementHandler::NoteCopyDropped(FileInfo& file) noexcept {
  if (file.low_retention.exchange(false, std::memory_order_acq_rel)) {
    low_retention_resident_bytes_.fetch_sub(file.size,
                                            std::memory_order_relaxed);
  }
}

void PlacementHandler::CancelPrefetch(FileInfo& file) noexcept {
  prefetch_cancelled_.fetch_add(1, std::memory_order_relaxed);
  file.prefetched.store(false, std::memory_order_relaxed);
}

PlacementHandler::PlacementHandler(StorageHierarchy& hierarchy,
                                   MetadataContainer& metadata,
                                   PlacementPolicyPtr policy,
                                   PlacementOptions options,
                                   ResilienceOptions resilience,
                                   PeerViewPtr peer_view)
    : hierarchy_(hierarchy),
      metadata_(metadata),
      policy_(std::move(policy)),
      options_(options),
      resilience_(resilience),
      peer_view_(std::move(peer_view)),
      pool_(options.staging_buffer_bytes,
            std::min<std::uint64_t>(
                std::max<std::uint64_t>(1, options.staging_chunk_bytes),
                std::max<std::uint64_t>(1, options.staging_buffer_bytes))),
      inflight_bytes_(hierarchy.num_levels(), 0) {
  // Fair-queue classes (ISSUE 10): interactive and training are the
  // demand band, scan/drain/prefetch the background band. With QoS off
  // every class weighs 1 — the queue degenerates to the original
  // two-lane demand-before-prefetch behaviour.
  const qos::QosOptions& q = options_.qos;
  queue_.RegisterClass(qos::ClassIndex(qos::IoClass::kInteractive), 0,
                       q.enabled ? q.interactive_weight : 1.0);
  queue_.RegisterClass(qos::ClassIndex(qos::IoClass::kTraining), 0,
                       q.enabled ? q.training_weight : 1.0);
  queue_.RegisterClass(qos::ClassIndex(qos::IoClass::kScan), 1,
                       q.enabled ? q.scan_weight : 1.0);
  queue_.RegisterClass(qos::ClassIndex(qos::IoClass::kDrain), 1,
                       q.enabled ? q.drain_weight : 1.0);
  queue_.RegisterClass(qos::ClassIndex(qos::IoClass::kPrefetch), 1,
                       q.enabled ? q.drain_weight : 1.0);
  // A logical chunk must fit one pooled buffer: the staging pipeline
  // reads exactly one chunk per lease.
  options_.pack.chunk_bytes = std::min<std::uint64_t>(
      std::max<std::uint64_t>(1, options_.pack.chunk_bytes),
      pool_.chunk_bytes());
  if (options_.pack.enabled && options_.pack.codec != "none") {
    auto codec = pack::CodecByName(options_.pack.codec);
    if (codec.ok()) {
      codec_ = codec.value();
    } else {
      MLOG_WARN << "unknown pack codec '" << options_.pack.codec
                << "'; staging chunks uncompressed";
    }
  }
  const int n = std::max(1, options_.num_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

PlacementHandler::~PlacementHandler() {
  StopScheduling();
  CancelPrefetches();
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // A prefetch copy that was running during shutdown may have parked
  // itself after the cancel above; return those files to the retryable
  // state instead of leaving them stuck in kFetching.
  CancelPrefetches();
}

void PlacementHandler::SchedulePlacement(
    FileInfoPtr file, std::optional<std::vector<std::byte>> content,
    StagingLane lane) {
  // The task owns the FileInfo reference and (optionally) the bytes the
  // read path already fetched, avoiding a second PFS read (§III-B, ③/④).
  Enqueue({std::move(file), std::move(content), lane, {}, SnapshotTenant()});
}

void PlacementHandler::ScheduleChunkPlacement(FileInfoPtr file,
                                              std::vector<std::uint32_t> chunks,
                                              StagingLane lane) {
  if (chunks.empty()) return;
  Enqueue({std::move(file), std::nullopt, lane, std::move(chunks),
           SnapshotTenant()});
}

void PlacementHandler::Enqueue(StagingTask task) {
  if (stopped_.load(std::memory_order_relaxed)) {
    if (task.lane == StagingLane::kPrefetch) CancelPrefetch(*task.file);
    ReleaseClaims(task);
    return;
  }
  scheduled_.fetch_add(1, std::memory_order_relaxed);
  if (task.lane == StagingLane::kPrefetch) {
    prefetch_scheduled_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard lock(mu_);
    PushLocked(std::move(task));
  }
  cv_.notify_one();
}

bool PlacementHandler::PromoteToDemand(const FileInfoPtr& file) {
  // The promoting thread is the overtaking demand reader: the task is
  // re-queued on that reader's class so the copy inherits its urgency.
  const qos::TenantContext promoter = SnapshotTenant();
  {
    std::lock_guard lock(mu_);
    auto match = [&file](const StagingTask& t) {
      return t.file == file && t.lane == StagingLane::kPrefetch;
    };
    std::optional<StagingTask> found = queue_.Extract(match);
    if (!found.has_value()) {
      auto dit = std::find_if(deferred_.begin(), deferred_.end(), match);
      if (dit == deferred_.end()) return false;
      found = std::move(*dit);
      deferred_.erase(dit);
    }
    found->lane = StagingLane::kDemand;
    found->tenant = promoter;
    PushLocked(std::move(*found));
  }
  prefetch_promoted_.fetch_add(1, std::memory_order_relaxed);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("placement.promote", "placement",
                         "\"file\":" + obs::JsonQuote(file->name));
  }
  cv_.notify_one();
  return true;
}

std::size_t PlacementHandler::CancelPrefetches() {
  std::vector<StagingTask> cancelled;
  {
    std::lock_guard lock(mu_);
    cancelled = queue_.ExtractAll([](const StagingTask& t) {
      return t.lane == StagingLane::kPrefetch;
    });
    for (auto& task : deferred_) cancelled.push_back(std::move(task));
    deferred_.clear();
  }
  for (const StagingTask& task : cancelled) {
    CancelPrefetch(*task.file);
    // Back to the retryable PFS-only state (chunk tasks hand their chunk
    // claims back) so a later read can re-trigger staging.
    ReleaseClaims(task);
  }
  drain_cv_.notify_all();
  return cancelled.size();
}

void PlacementHandler::WorkerLoop() {
  for (;;) {
    StagingTask task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      std::optional<StagingTask> popped = queue_.TryPop();
      if (!popped.has_value()) {
        // shutdown_ is set and nothing is queued: exit after the last
        // task finishes (queued tasks still run to completion).
        return;
      }
      task = std::move(*popped);
      ++active_;
    }
    // Re-install the scheduling thread's tenant on this worker so every
    // byte the copy moves stays attributable across the thread hop.
    const qos::TenantContext tenant = task.tenant;
    qos::ScopedTenant scope(tenant);
    if (task.chunks.empty()) {
      PlaceFile(std::move(task));
    } else {
      PlaceChunks(std::move(task));
    }
    {
      std::lock_guard lock(mu_);
      --active_;
    }
    drain_cv_.notify_all();
  }
}

bool PlacementHandler::AdmitInflight(int level, StagingTask& task) {
  const std::uint64_t size = task.file->size;
  const std::uint64_t cap = options_.tier_inflight_cap_bytes;
  std::lock_guard lock(mu_);
  auto& inflight = inflight_bytes_[static_cast<std::size_t>(level)];
  // The `inflight > 0` guard makes parking self-resolving: some other
  // copy is in flight on this tier, and its FinishInflight (under this
  // mutex) splices the parked task back into the prefetch queue.
  if (task.lane == StagingLane::kPrefetch && cap > 0 && inflight > 0 &&
      inflight + size > cap) {
    deferred_.push_back(std::move(task));
    return false;
  }
  inflight += size;
  return true;
}

void PlacementHandler::FinishInflight(int level, std::uint64_t size) {
  bool wake = false;
  {
    std::lock_guard lock(mu_);
    inflight_bytes_[static_cast<std::size_t>(level)] -= size;
    if (!deferred_.empty()) {
      for (auto& task : deferred_) PushLocked(std::move(task));
      deferred_.clear();
      wake = true;
    }
  }
  if (wake) cv_.notify_all();
}

void PlacementHandler::RecordStagingFailure(const FileInfoPtr& file) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  file->prefetched.store(false, std::memory_order_relaxed);
  const int failures =
      file->fetch_failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (failures >= resilience_.max_placement_attempts) {
    abandoned_.fetch_add(1, std::memory_order_relaxed);
    obs::EventTracer& tracer = obs::EventTracer::Global();
    if (tracer.enabled()) {
      tracer.RecordInstant("placement.abandoned", "resilience",
                           "\"file\":" + obs::JsonQuote(file->name) +
                               ",\"attempts\":" + std::to_string(failures));
    }
    MLOG_WARN << "giving up staging '" << file->name << "' after " << failures
              << " failed attempts; it stays PFS-resident";
    file->AbortFetch(/*permanently=*/true);
  } else {
    retries_.fetch_add(1, std::memory_order_relaxed);
    file->AbortFetch(/*permanently=*/false);
  }
}

bool PlacementHandler::RefuseScanStaging(const StagingTask& task) {
  // Scan resistance (ISSUE 10): a low-retention tenant past its
  // resident cap is refused — its reads keep being served straight from
  // the PFS instead of churning the cache tiers.
  const std::uint64_t cap = options_.qos.scan_stage_cap_bytes;
  if (!task.tenant.low_retention || cap == 0 ||
      low_retention_resident_bytes_.load(std::memory_order_relaxed) +
              task.file->size <=
          cap) {
    return false;
  }
  scan_stage_refusals_.fetch_add(1, std::memory_order_relaxed);
  if (task.lane == StagingLane::kPrefetch) CancelPrefetch(*task.file);
  task.file->stage_refused.store(true, std::memory_order_release);
  ReleaseClaims(task);
  return true;
}

void PlacementHandler::CountNoSpace(const StagingTask& task) {
  rejected_no_space_.fetch_add(1, std::memory_order_relaxed);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("placement.rejected_no_space", "placement",
                         "\"file\":" + obs::JsonQuote(task.file->name));
  }
  // A prefetch rejection is never permanent: a later demand read may
  // still place the file (e.g. after evictions free room).
  if (task.lane == StagingLane::kPrefetch) CancelPrefetch(*task.file);
}

Status PlacementHandler::StreamCopy(
    const FileInfoPtr& file, const std::optional<std::vector<std::byte>>& prefix,
    StorageDriver& destination, std::uint32_t& crc) {
  const std::uint64_t chunk_bytes = pool_.chunk_bytes();
  std::uint64_t offset = 0;
  crc = 0;

  // Donated leading bytes: the triggering partial read already paid the
  // PFS for these, so they enter the pipeline straight from memory.
  if (prefix.has_value() && !prefix->empty()) {
    const std::span<const std::byte> donated(*prefix);
    while (offset < donated.size()) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(chunk_bytes, donated.size() - offset));
      const auto slice = donated.subspan(static_cast<std::size_t>(offset), n);
      crc = Crc32c(slice, crc);
      MONARCH_RETURN_IF_ERROR(destination.WriteAt(file->name, offset, slice));
      offset += n;
      chunks_copied_.fetch_add(1, std::memory_order_relaxed);
    }
    donated_bytes_.fetch_add(donated.size(), std::memory_order_relaxed);
  }

  // Stream the remainder from the PFS through one pooled buffer — peak
  // staging memory is the pool budget, never the file size.
  if (offset < file->size) {
    BufferPool::Lease lease = pool_.Acquire();
    while (offset < file->size) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(chunk_bytes, file->size - offset));
      const std::span<std::byte> buffer(lease.bytes().data(), n);
      auto read = hierarchy_.Pfs().Read(file->name, offset, buffer);
      if (!read.ok()) return read.status();
      if (read.value() != n) {
        return InternalError("short PFS read of '" + file->name + "' at " +
                             std::to_string(offset) + ": got " +
                             std::to_string(read.value()) + " of " +
                             std::to_string(n) + " bytes");
      }
      crc = Crc32c(buffer, crc);
      MONARCH_RETURN_IF_ERROR(destination.WriteAt(file->name, offset, buffer));
      offset += n;
      chunks_copied_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::Ok();
}

bool PlacementHandler::VerifyStagedCopy(const FileInfoPtr& file,
                                        StorageDriver& destination,
                                        std::uint32_t crc) {
  const std::uint64_t chunk_bytes = pool_.chunk_bytes();
  BufferPool::Lease lease = pool_.Acquire();
  std::uint32_t readback_crc = 0;
  std::uint64_t offset = 0;
  while (offset < file->size) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_bytes, file->size - offset));
    const std::span<std::byte> buffer(lease.bytes().data(), n);
    auto read = destination.Read(file->name, offset, buffer);
    if (!read.ok() || read.value() != n) return false;
    readback_crc = Crc32c(buffer, readback_crc);
    offset += n;
  }
  return readback_crc == crc;
}

void PlacementHandler::PlaceFile(StagingTask task) {
  // Own reference, not an alias into the task: parking moves the task
  // into `deferred_`, which would leave `task.file` null.
  const FileInfoPtr file = task.file;
  // Spans the whole schedule→complete staging of one file. Args are only
  // rendered when tracing is live (active() gate).
  obs::TraceSpan span("placement.stage", "placement");
  if (span.active()) {
    span.set_args_json("\"file\":" + obs::JsonQuote(file->name) +
                       ",\"bytes\":" + std::to_string(file->size) +
                       ",\"lane\":\"" + LaneName(task.lane) + "\"");
  }
  if (RefuseScanStaging(task)) return;

  // 1. Choose (and reserve) the destination level, falling back to
  // policy-driven eviction when no tier has room (EvictAndReserve gates
  // on what the policy and lane allow).
  const std::optional<int> level =
      EvictAndReserve(file, task.lane, file->size);
  if (!level.has_value()) {
    CountNoSpace(task);
    if (task.lane == StagingLane::kPrefetch) {
      file->AbortFetch(/*permanently=*/false);
    } else if (options_.enable_eviction || policy_->EvictsUnderPressure()) {
      // Eviction makes quota headroom dynamic: this rejection only means
      // the policy protected every current resident (or lost the claim
      // races), not that the file can never fit. Leave it retryable so a
      // later access tries again against the then-current occupancy —
      // but latch stage_refused so chunked readers retry once per file
      // open instead of once per chunk.
      file->stage_refused.store(true, std::memory_order_release);
      file->AbortFetch(/*permanently=*/false);
    } else {
      // No tier can hold the file and nothing will ever be evicted: it
      // stays PFS-resident for the whole job (the 200 GiB-dataset
      // scenario). Mark it so the read path stops retrying placement on
      // every access.
      file->AbortFetch(/*permanently=*/true);
    }
    return;
  }

  StorageDriver& destination = hierarchy_.Level(*level);

  // 2. Per-tier staging-bandwidth cap: a prefetch copy parks while the
  // tier is saturated (any completion on the tier un-parks it); demand
  // copies are exempt so a read-triggered stage never waits here.
  const StagingLane lane = task.lane;
  const bool low_retention = task.tenant.low_retention;
  if (!AdmitInflight(*level, task)) {
    destination.Release(file->size);
    return;
  }

  // 3. Copy. A full-content task (the triggering read covered the whole
  // file) is a single put of bytes already in memory; anything else is
  // the chunked pipeline: donated prefix first, then streamed PFS reads.
  std::uint32_t crc = 0;
  Status written = Status::Ok();
  if (task.content.has_value() && task.content->size() == file->size) {
    crc = Crc32c(*task.content);
    written = destination.Write(file->name, *task.content);
  } else {
    written = StreamCopy(file, task.content, destination, crc);
  }
  if (!written.ok()) {
    MLOG_WARN << "placement copy of '" << file->name << "' to tier '"
              << destination.name() << "' failed: " << written;
    // A chunked copy may have landed a partial file; remove it so a
    // retry starts clean and readers never see a truncated copy.
    (void)destination.Delete(file->name);
    destination.Release(file->size);
    FinishInflight(*level, file->size);
    RecordStagingFailure(file);
    return;
  }

  // 4. Optionally read the copy back (chunked, bounded memory) and prove
  // the bytes landed intact — a corrupted staged copy must degrade to a
  // failed placement, never get published as a serving replica.
  if (resilience_.verify_staged_writes &&
      !VerifyStagedCopy(file, destination, crc)) {
    MLOG_WARN << "staged copy of '" << file->name << "' on tier '"
              << destination.name() << "' failed verification; deleting";
    // We still hold the Reserve for this copy, so the quota comes back
    // whether or not the delete found anything on disk.
    (void)destination.Delete(file->name);
    destination.Release(file->size);
    FinishInflight(*level, file->size);
    quarantined_.fetch_add(1, std::memory_order_relaxed);
    obs::EventTracer& tracer = obs::EventTracer::Global();
    if (tracer.enabled()) {
      tracer.RecordInstant("placement.quarantine", "resilience",
                           "\"file\":" + obs::JsonQuote(file->name) +
                               ",\"tier\":" +
                               obs::JsonQuote(destination.name()) +
                               ",\"phase\":\"stage\"");
    }
    RecordStagingFailure(file);
    return;
  }

  // Record the checksum before publishing the level so any reader that
  // observes kPlaced also observes the CRC it may verify against.
  file->staged_crc.store(crc, std::memory_order_release);
  file->fetch_failures.store(0, std::memory_order_relaxed);
  if (low_retention) {
    if (!file->low_retention.exchange(true, std::memory_order_acq_rel)) {
      low_retention_resident_bytes_.fetch_add(file->size,
                                              std::memory_order_relaxed);
    }
  } else {
    // A demand-class tenant re-staged the file: its copy is a working-
    // set member again, protected from low-retention evictors.
    NoteCopyDropped(*file);
  }
  file->FinishFetch(*level);
  // Advertise the copy to the cluster once it is actually readable.
  if (peer_view_ != nullptr) peer_view_->OnStaged(file->name, *level);
  completed_.fetch_add(1, std::memory_order_relaxed);
  bytes_staged_.fetch_add(file->size, std::memory_order_relaxed);
  if (lane == StagingLane::kPrefetch) {
    prefetch_completed_.fetch_add(1, std::memory_order_relaxed);
  }
  FinishInflight(*level, file->size);
}

bool PlacementHandler::QuarantineCopy(const FileInfoPtr& file) {
  // Claim the file exactly like an eviction: kPlaced -> kFetching stops
  // concurrent readers from trusting its level while we delete the copy.
  PlacementState expected = PlacementState::kPlaced;
  if (!file->state.compare_exchange_strong(expected, PlacementState::kFetching,
                                           std::memory_order_acq_rel)) {
    return false;  // already being fetched/evicted/quarantined elsewhere
  }
  const int level = file->level.load(std::memory_order_acquire);
  if (level == hierarchy_.pfs_level()) {
    // Nothing staged to quarantine (level already points at the source).
    file->state.store(PlacementState::kPlaced, std::memory_order_release);
    return false;
  }
  StorageDriver& tier = hierarchy_.Level(level);
  file->level.store(hierarchy_.pfs_level(), std::memory_order_release);
  if (peer_view_ != nullptr) peer_view_->OnDropped(file->name);
  if (tier.Delete(file->name).ok()) {
    tier.Release(file->size);
  }
  NoteCopyDropped(*file);
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("placement.quarantine", "resilience",
                         "\"file\":" + obs::JsonQuote(file->name) +
                             ",\"tier\":" + obs::JsonQuote(tier.name()) +
                             ",\"phase\":\"read\"");
  }
  MLOG_WARN << "quarantined corrupt copy of '" << file->name << "' on tier '"
            << tier.name() << "'; reads fall back to the PFS";
  // A corrupt copy counts toward the per-file cap so persistent
  // corruption eventually parks the file as unplaceable; with
  // restage_after_quarantine off the file is parked immediately.
  const int failures =
      file->fetch_failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  file->AbortFetch(/*permanently=*/!resilience_.restage_after_quarantine ||
                   failures >= resilience_.max_placement_attempts);
  return true;
}

bool PlacementHandler::EvictOne(const FileInfoPtr& victim) {
  FileInfo& vf = *victim;
  // Scan resistance (ISSUE 10): a low-retention requester may only
  // evict other low-retention copies — it can never push out a demand
  // working set, so `qos.cross_class_evictions` stays zero by
  // construction.
  const qos::TenantContext* requester = qos::CurrentTenant();
  if (requester != nullptr && requester->low_retention &&
      !vf.low_retention.load(std::memory_order_acquire)) {
    return false;
  }
  // Chunk-resident victims (pack mode) hold per-chunk quota and tier
  // objects, not a whole-file copy: drop them through the chunk path.
  if (pack::ChunkMap* cm = vf.chunk_map();
      cm != nullptr && cm->ResidentCount() > 0) {
    return EvictChunkCopies(victim) > 0;
  }
  // Claim the victim: kPlaced -> kFetching blocks concurrent readers
  // from trusting its level while we delete the copy.
  PlacementState expected = PlacementState::kPlaced;
  if (!vf.state.compare_exchange_strong(expected, PlacementState::kFetching,
                                        std::memory_order_acq_rel)) {
    return false;
  }
  // Read pins (ISSUE 6): a demand read is mid-flight on this file's
  // staged copy. Revert the claim — its bytes stay until the read ends.
  // The pin is checked after the claim so a reader that pinned first is
  // always honoured; one that pins after this check degrades to the
  // pre-pinning behaviour (kNotFound -> PFS fallback).
  if (vf.read_pins.load(std::memory_order_acquire) > 0) {
    vf.state.store(PlacementState::kPlaced, std::memory_order_release);
    eviction_pinned_skips_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const int victim_level = vf.level.load(std::memory_order_acquire);
  if (victim_level == hierarchy_.pfs_level()) {
    // Nothing staged (stale snapshot); leave the file as we found it.
    vf.state.store(PlacementState::kPlaced, std::memory_order_release);
    return false;
  }
  StorageDriver& tier = hierarchy_.Level(victim_level);
  vf.level.store(hierarchy_.pfs_level(), std::memory_order_release);
  if (peer_view_ != nullptr) peer_view_->OnDropped(vf.name);
  vf.AbortFetch(/*permanently=*/false);  // back to PFS-only
  if (!tier.Delete(vf.name).ok()) return false;
  tier.Release(vf.size);
  const bool was_low_retention =
      vf.low_retention.load(std::memory_order_acquire);
  NoteCopyDropped(vf);
  if (requester != nullptr && requester->low_retention &&
      !was_low_retention) {
    // Unreachable under the guard above; counted so a future regression
    // shows up in `qos.cross_class_evictions` instead of hiding.
    cross_class_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  evictions_.fetch_add(1, std::memory_order_relaxed);
  evicted_bytes_.fetch_add(vf.size, std::memory_order_relaxed);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("placement.evict", "placement",
                         "\"file\":" + obs::JsonQuote(vf.name) +
                             ",\"bytes\":" + std::to_string(vf.size) +
                             ",\"tier\":" + obs::JsonQuote(tier.name()));
  }
  return true;
}

std::optional<int> PlacementHandler::EvictAndReserve(
    const FileInfoPtr& file, StagingLane lane, std::uint64_t bytes,
    std::optional<int> level) {
  // With `level` set only that tier may take the bytes: a chunked file's
  // chunks are pinned to it by the tier assignment, so space anywhere
  // else does not help.
  auto reserve = [&]() -> std::optional<int> {
    if (!level.has_value()) return policy_->PickLevel(hierarchy_, bytes);
    if (hierarchy_.Level(*level).Reserve(bytes)) return level;
    return std::nullopt;
  };
  if (std::optional<int> reserved = reserve()) return reserved;
  const bool may_evict =
      lane == StagingLane::kDemand
          ? options_.enable_eviction || policy_->EvictsUnderPressure()
          : policy_->PrefetchMayEvict();
  if (!may_evict) return std::nullopt;

  // The policy ranks; this loop claims and drops. Re-try the reservation
  // after each successful eviction — freed space is first-come-first-
  // served under concurrent workers, so the reservation is the only
  // proof. Low-retention (scan) copies are tried first: they are
  // explicitly marked expendable, so demand working sets survive
  // pressure longest.
  std::vector<FileInfoPtr> victims = policy_->SelectVictims(
      metadata_, *file, lane == StagingLane::kDemand);
  if (options_.qos.enabled) {
    std::stable_partition(victims.begin(), victims.end(),
                          [](const FileInfoPtr& v) {
                            return v->low_retention.load(
                                std::memory_order_acquire);
                          });
  }
  for (const FileInfoPtr& victim : victims) {
    if (victim == file) continue;
    if (level.has_value()) {
      const pack::ChunkMap* vcm = victim->chunk_map();
      const int victim_level =
          vcm != nullptr && vcm->ResidentCount() > 0
              ? vcm->tier()
              : victim->level.load(std::memory_order_acquire);
      if (victim_level != *level) continue;
    }
    if (!EvictOne(victim)) continue;
    if (std::optional<int> reserved = reserve()) return reserved;
  }
  eviction_refused_.fetch_add(1, std::memory_order_relaxed);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("placement.evict_refused", "placement",
                         "\"file\":" + obs::JsonQuote(file->name) +
                             ",\"bytes\":" + std::to_string(bytes));
  }
  return std::nullopt;
}

void PlacementHandler::ReleaseClaims(const StagingTask& task) {
  if (task.chunks.empty()) {
    task.file->AbortFetch(/*permanently=*/false);
    return;
  }
  pack::ChunkMap* cm = task.file->chunk_map();
  if (cm == nullptr) return;
  for (const std::uint32_t c : task.chunks) cm->ReleaseClaim(c);
  std::lock_guard lock(cm->placement_mutex());
  cm->MaybeResetTier();
}

std::uint64_t PlacementHandler::EvictChunks(const FileInfoPtr& victim,
                                            std::uint64_t needed_bytes) {
  FileInfo& vf = *victim;
  pack::ChunkMap* cm = vf.chunk_map();
  if (cm == nullptr) return 0;
  // Read pins protect chunked files exactly like whole-file copies: an
  // active read keeps every resident chunk until it unpins.
  if (vf.read_pins.load(std::memory_order_acquire) > 0) {
    eviction_pinned_skips_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  const int level = cm->tier();
  if (level < 0 || level == hierarchy_.pfs_level()) return 0;
  StorageDriver& tier = hierarchy_.Level(level);
  std::uint64_t freed = 0;
  std::uint64_t dropped = 0;
  {
    std::lock_guard lock(cm->placement_mutex());
    for (std::uint32_t c = 0;
         c < cm->num_chunks() && freed < needed_bytes; ++c) {
      const std::uint64_t stored = cm->TryEvict(c);
      if (stored == 0) continue;
      (void)tier.Delete(pack::ChunkObjectName(vf.name, c));
      tier.Release(stored);
      freed += stored;
      ++dropped;
    }
    if (cm->ResidentCount() == 0) {
      cm->MaybeResetTier();
      NoteCopyDropped(vf);
      // The file no longer serves anything from a tier; fold it back to
      // PFS-resident through the same claim the whole-file evictor uses
      // (readers mid-lookup fall back to the PFS on kNotFound).
      PlacementState expected = PlacementState::kPlaced;
      if (vf.state.compare_exchange_strong(expected,
                                           PlacementState::kFetching,
                                           std::memory_order_acq_rel)) {
        vf.level.store(hierarchy_.pfs_level(), std::memory_order_release);
        vf.AbortFetch(/*permanently=*/false);
      }
    }
  }
  if (dropped > 0) {
    chunks_evicted_.fetch_add(dropped, std::memory_order_relaxed);
    evicted_bytes_.fetch_add(freed, std::memory_order_relaxed);
    obs::EventTracer& tracer = obs::EventTracer::Global();
    if (tracer.enabled()) {
      tracer.RecordInstant("placement.evict", "placement",
                           "\"file\":" + obs::JsonQuote(vf.name) +
                               ",\"bytes\":" + std::to_string(freed) +
                               ",\"chunks\":" + std::to_string(dropped) +
                               ",\"tier\":" + obs::JsonQuote(tier.name()));
    }
  }
  return freed;
}

std::optional<int> PlacementHandler::ReserveChunk(const FileInfoPtr& file,
                                                  pack::ChunkMap& cm,
                                                  std::uint64_t stored_bytes,
                                                  StagingLane lane) {
  int level = cm.tier();
  if (level < 0) {
    // No tier assigned yet: let the policy pick one (reserving the
    // bytes there), then race to install it as the file's tier.
    const std::optional<int> picked =
        EvictAndReserve(file, lane, stored_bytes);
    if (!picked.has_value()) return std::nullopt;
    {
      std::lock_guard lock(cm.placement_mutex());
      level = cm.AssignTier(*picked);
    }
    if (level == *picked) return level;
    // Lost the assignment race: hand the reservation back and fall
    // through to reserve on the winner's tier instead.
    hierarchy_.Level(*picked).Release(stored_bytes);
  }
  return EvictAndReserve(file, lane, stored_bytes, level);
}

void PlacementHandler::PlaceChunks(StagingTask task) {
  const FileInfoPtr file = task.file;
  pack::ChunkMap* cm = file->chunk_map();
  if (cm == nullptr) return;  // claims imply a map; defensive only
  obs::TraceSpan span("pack.stage", "placement");
  if (span.active()) {
    span.set_args_json("\"file\":" + obs::JsonQuote(file->name) +
                       ",\"chunks\":" + std::to_string(task.chunks.size()) +
                       ",\"lane\":\"" + LaneName(task.lane) + "\"");
  }
  if (RefuseScanStaging(task)) return;
  const bool low_retention = task.tenant.low_retention;

  // One pooled lease carries the logical bytes of every chunk in the
  // task (pack.chunk_bytes is clamped to the pool's chunk size); the
  // codec output and verification scratch are reused across chunks.
  BufferPool::Lease lease = pool_.Acquire();
  std::vector<std::byte> encoded;
  std::vector<std::byte> readback;

  std::size_t next = 0;
  bool rejected = false;
  Status failure = Status::Ok();
  for (; next < task.chunks.size(); ++next) {
    const std::uint32_t c = task.chunks[next];
    const std::uint64_t offset = cm->ChunkOffset(c);
    const std::uint32_t logical_n = cm->ChunkLogicalBytes(c);
    const std::span<std::byte> logical(lease.bytes().data(), logical_n);
    auto read = hierarchy_.Pfs().Read(file->name, offset, logical);
    if (!read.ok()) {
      failure = read.status();
      break;
    }
    if (read.value() != logical_n) {
      failure = InternalError("short PFS read of '" + file->name + "' at " +
                              std::to_string(offset) + ": got " +
                              std::to_string(read.value()) + " of " +
                              std::to_string(logical_n) + " bytes");
      break;
    }
    pack::ChunkMap::ChunkMeta meta;
    meta.crc_logical = Crc32c(logical);
    std::span<const std::byte> stored(logical);
    if (codec_ != nullptr) {
      const Status encoded_ok = codec_->Encode(logical, encoded);
      if (!encoded_ok.ok()) {
        failure = encoded_ok;
        break;
      }
      stored = encoded;
    }
    meta.stored_bytes = static_cast<std::uint32_t>(stored.size());
    meta.crc_stored = Crc32c(stored);

    const std::optional<int> level =
        ReserveChunk(file, *cm, stored.size(), task.lane);
    if (!level.has_value()) {
      rejected = true;
      break;
    }
    StorageDriver& tier = hierarchy_.Level(*level);
    const std::string object = pack::ChunkObjectName(file->name, c);
    Status written = tier.Write(object, stored);
    if (written.ok() && resilience_.verify_staged_writes) {
      readback.resize(stored.size());
      auto rb = tier.Read(object, 0, readback);
      if (!rb.ok() || rb.value() != stored.size() ||
          Crc32c(std::span<const std::byte>(readback)) != meta.crc_stored) {
        quarantined_.fetch_add(1, std::memory_order_relaxed);
        written =
            DataLossError("staged chunk failed verification: " + object);
      }
    }
    if (!written.ok()) {
      (void)tier.Delete(object);
      tier.Release(stored.size());
      failure = written;
      break;
    }
    {
      std::lock_guard lock(cm->placement_mutex());
      if (cm->Publish(c, meta) == 1) {
        // First resident chunk: the file now serves (partially) from a
        // tier. Flip the whole-file state so the eviction policies see
        // it as placed and readers route offset lookups via the map.
        file->fetch_failures.store(0, std::memory_order_relaxed);
        if (low_retention &&
            !file->low_retention.exchange(true,
                                          std::memory_order_acq_rel)) {
          low_retention_resident_bytes_.fetch_add(
              file->size, std::memory_order_relaxed);
        }
        file->FinishFetch(*level);
        completed_.fetch_add(1, std::memory_order_relaxed);
        if (task.lane == StagingLane::kPrefetch) {
          prefetch_completed_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    chunks_staged_.fetch_add(1, std::memory_order_relaxed);
    chunk_stored_bytes_.fetch_add(stored.size(), std::memory_order_relaxed);
    bytes_staged_.fetch_add(logical_n, std::memory_order_relaxed);
  }

  if (next >= task.chunks.size()) return;  // every chunk published

  // Back out the claims we will not stage.
  StagingTask rest;
  rest.file = file;
  rest.chunks.assign(task.chunks.begin() +
                         static_cast<std::ptrdiff_t>(next),
                     task.chunks.end());
  ReleaseClaims(rest);
  if (rejected) {
    CountNoSpace(task);
    if (task.lane == StagingLane::kDemand) {
      // Latch so chunked readers stop re-enqueueing doomed demand
      // stagings chunk by chunk; the next offset-0 read re-arms it.
      file->stage_refused.store(true, std::memory_order_release);
    }
    return;
  }
  chunk_failures_.fetch_add(1, std::memory_order_relaxed);
  failed_.fetch_add(1, std::memory_order_relaxed);
  file->prefetched.store(false, std::memory_order_relaxed);
  MLOG_WARN << "chunk staging of '" << file->name << "' failed: " << failure;
}

void PlacementHandler::InstallSchedule(
    const std::vector<std::string>& sequence) {
  policy_->OnSchedule(sequence);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("placement.schedule", "placement",
                         "\"accesses\":" + std::to_string(sequence.size()) +
                             ",\"policy\":" + obs::JsonQuote(policy_->Name()));
  }
}

void PlacementHandler::NoteAccess(const FileInfo& file) {
  policy_->OnAccess(file);
}

void PlacementHandler::Drain() {
  std::unique_lock lock(mu_);
  drain_cv_.wait(lock, [this] {
    return queue_.empty() && deferred_.empty() && active_ == 0;
  });
}

PlacementStats PlacementHandler::Stats() const {
  PlacementStats s;
  s.scheduled = scheduled_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected_no_space = rejected_no_space_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.bytes_staged = bytes_staged_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.evicted_bytes = evicted_bytes_.load(std::memory_order_relaxed);
  s.eviction_refused = eviction_refused_.load(std::memory_order_relaxed);
  s.eviction_pinned_skips =
      eviction_pinned_skips_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  s.abandoned = abandoned_.load(std::memory_order_relaxed);
  s.prefetch_scheduled = prefetch_scheduled_.load(std::memory_order_relaxed);
  s.prefetch_completed = prefetch_completed_.load(std::memory_order_relaxed);
  s.prefetch_promoted = prefetch_promoted_.load(std::memory_order_relaxed);
  s.prefetch_cancelled = prefetch_cancelled_.load(std::memory_order_relaxed);
  s.chunks_copied = chunks_copied_.load(std::memory_order_relaxed);
  s.donated_bytes = donated_bytes_.load(std::memory_order_relaxed);
  s.chunks_staged = chunks_staged_.load(std::memory_order_relaxed);
  s.chunk_stored_bytes = chunk_stored_bytes_.load(std::memory_order_relaxed);
  s.chunks_evicted = chunks_evicted_.load(std::memory_order_relaxed);
  s.chunk_failures = chunk_failures_.load(std::memory_order_relaxed);
  s.cross_class_evictions =
      cross_class_evictions_.load(std::memory_order_relaxed);
  s.scan_stage_refusals =
      scan_stage_refusals_.load(std::memory_order_relaxed);
  s.low_retention_resident_bytes =
      low_retention_resident_bytes_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    s.queue_depth_interactive = queue_.class_depth(
        qos::ClassIndex(qos::IoClass::kInteractive));
    s.queue_depth_training =
        queue_.class_depth(qos::ClassIndex(qos::IoClass::kTraining));
    s.queue_depth_scan =
        queue_.class_depth(qos::ClassIndex(qos::IoClass::kScan));
    s.queue_depth_drain =
        queue_.class_depth(qos::ClassIndex(qos::IoClass::kDrain));
    // The original two-lane gauges survive as aggregates: every demand-
    // band class counts as demand, the prefetch class (plus parked
    // tasks) as prefetch.
    s.queue_depth_demand = s.queue_depth_interactive +
                           s.queue_depth_training + s.queue_depth_scan +
                           s.queue_depth_drain;
    s.queue_depth_prefetch =
        queue_.class_depth(qos::ClassIndex(qos::IoClass::kPrefetch)) +
        deferred_.size();
    s.inflight_bytes_per_level = inflight_bytes_;
    for (const std::uint64_t bytes : inflight_bytes_) s.inflight_bytes += bytes;
  }
  s.buffer_pool_used_bytes = pool_.in_use_bytes();
  s.buffer_pool_capacity_bytes = pool_.capacity_bytes();
  return s;
}

}  // namespace monarch::core

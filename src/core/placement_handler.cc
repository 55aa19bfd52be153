#include "core/placement_handler.h"

#include <algorithm>
#include <cstring>
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

bool PlacementHandler::NoteCopyDropped(FileInfo& file) noexcept {
  if (!file.low_retention.exchange(false, std::memory_order_acq_rel)) {
    return false;
  }
  low_retention_resident_bytes_.fetch_sub(file.size, std::memory_order_relaxed);
  return true;
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
                std::max<std::uint64_t>(1, options.staging_buffer_bytes))) {
  // Fair-queue classes (ISSUE 10): interactive and training are the
  // demand band, scan/drain/prefetch the background band. With QoS off
  // every class weighs 1 — the queue degenerates to the original
  // demand-before-prefetch behaviour.
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
}

void PlacementHandler::SchedulePlacement(FileInfoPtr file,
                                         std::span<const std::byte> prefix,
                                         StagingLane lane) {
  // The task owns the FileInfo reference and (budget permitting) the
  // bytes the read path already fetched, avoiding a second PFS read
  // (§III-B, ③/④).
  Enqueue({std::move(file), Donate(0, prefix), lane, {}, SnapshotTenant()});
}

void PlacementHandler::ScheduleChunkPlacement(
    FileInfoPtr file, std::vector<std::uint32_t> chunks,
    std::uint64_t donated_offset, std::span<const std::byte> donated,
    StagingLane lane) {
  if (chunks.empty()) return;
  Enqueue({std::move(file), Donate(donated_offset, donated), lane,
           std::move(chunks), SnapshotTenant()});
}

PlacementHandler::Donation PlacementHandler::Donate(
    std::uint64_t offset, std::span<const std::byte> bytes) {
  if (bytes.empty()) return {};
  // Queued donations are capped by the staging-memory budget: past it,
  // the task goes without and re-reads those bytes from the PFS.
  std::uint64_t held = donation_held_bytes_.load(std::memory_order_relaxed);
  do {
    if (held + bytes.size() > options_.staging_buffer_bytes) return {};
  } while (!donation_held_bytes_.compare_exchange_weak(
      held, held + bytes.size(), std::memory_order_relaxed));
  return {offset, std::vector<std::byte>(bytes.begin(), bytes.end()),
          BudgetCharge(&donation_held_bytes_, Uncharge{bytes.size()})};
}

void PlacementHandler::BeginJoinable(FileInfo& file) {
  file.BeginJoinable();
  if (peer_view_ != nullptr) peer_view_->OnCopyBegin(file.name);
}

void PlacementHandler::EndJoinable(FileInfo& file) {
  file.EndJoinable();
  if (peer_view_ != nullptr) peer_view_->OnCopyEnd(file.name);
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
  } else if (task.chunks.empty()) {
    // Before the push: the worker's clear can never precede this set.
    BeginJoinable(*task.file);
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
    std::optional<StagingTask> found =
        queue_.Extract([&file](const StagingTask& t) {
          return t.file == file && t.lane == StagingLane::kPrefetch;
        });
    if (!found.has_value()) return false;
    found->lane = StagingLane::kDemand;
    found->tenant = promoter;
    // Still under mu_, so no worker can have popped (and finished) the
    // task before it is marked.
    if (found->chunks.empty()) BeginJoinable(*found->file);
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

Result<std::span<const std::byte>> PlacementHandler::SliceSource(
    const StagingTask& task, std::uint64_t offset, std::size_t n,
    std::optional<BufferPool::Lease>& lease) {
  // Donated bytes: the triggering read already paid the PFS for these,
  // so they enter the pipeline straight from memory.
  const Donation& donation = task.donation;
  const std::uint64_t end = offset + n;
  std::uint64_t donated_begin = std::max(offset, donation.offset);
  std::uint64_t donated_end =
      std::min(end, donation.offset + donation.bytes.size());
  std::span<const std::byte> donated;
  if (donated_begin < donated_end) {
    donated = std::span<const std::byte>(donation.bytes)
                  .subspan(static_cast<std::size_t>(donated_begin -
                                                    donation.offset),
                           static_cast<std::size_t>(donated_end -
                                                    donated_begin));
  } else {
    donated_begin = donated_end = end;
  }
  donated_bytes_.fetch_add(donated.size(), std::memory_order_relaxed);
  if (donated.size() == n) return donated;

  // Otherwise the slice is assembled in the pooled lease: the donated
  // part copied in, the stretches before and after it each read from the
  // PFS with one read.
  if (!lease.has_value()) lease.emplace(pool_.Acquire());
  const std::span<std::byte> buffer(lease->bytes().data(), n);
  if (!donated.empty()) {
    std::memcpy(buffer.data() + (donated_begin - offset), donated.data(),
                donated.size());
  }
  for (const auto& [from, to] : {std::pair{offset, donated_begin},
                                 std::pair{donated_end, end}}) {
    if (from >= to) continue;
    const std::size_t want = static_cast<std::size_t>(to - from);
    auto read = hierarchy_.Pfs().Read(
        task.file->name, from,
        buffer.subspan(static_cast<std::size_t>(from - offset), want));
    if (!read.ok()) return read.status();
    if (read.value() != want) {
      return InternalError("short PFS read of '" + task.file->name +
                           "' at " + std::to_string(from) + ": got " +
                           std::to_string(read.value()) + " of " +
                           std::to_string(want) + " bytes");
    }
  }
  return std::span<const std::byte>(buffer);
}

Status PlacementHandler::StreamCopy(const StagingTask& task,
                                    StorageDriver& destination,
                                    std::uint32_t& crc) {
  const FileInfo& file = *task.file;
  const std::uint64_t chunk_bytes = pool_.chunk_bytes();
  const std::uint64_t donated_end = task.donation.bytes.size();
  crc = 0;
  // The donated prefix first, then the remainder streamed from the PFS
  // through one pooled buffer — peak staging memory is the pool budget,
  // never the file size. No slice straddles the end of the prefix, so no
  // donated byte is re-read.
  std::optional<BufferPool::Lease> lease;
  for (std::uint64_t offset = 0; offset < file.size;) {
    std::uint64_t n = std::min<std::uint64_t>(chunk_bytes, file.size - offset);
    if (offset < donated_end) n = std::min(n, donated_end - offset);
    MONARCH_ASSIGN_OR_RETURN(
        const std::span<const std::byte> slice,
        SliceSource(task, offset, static_cast<std::size_t>(n), lease));
    crc = Crc32c(slice, crc);
    MONARCH_RETURN_IF_ERROR(destination.WriteAt(file.name, offset, slice));
    offset += n;
    chunks_copied_.fetch_add(1, std::memory_order_relaxed);
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
  const FileInfoPtr& file = task.file;
  // A running copy is joinable whatever its lane; every exit below —
  // publish, failure, refusal — ends it and wakes the joiners.
  BeginJoinable(*file);
  struct JoinGuard {
    PlacementHandler* handler;
    FileInfo* file;
    ~JoinGuard() { handler->EndJoinable(*file); }
  } join_guard{this, file.get()};
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
    } else if (Evicts()) {
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
  inflight_bytes_.fetch_add(file->size, std::memory_order_relaxed);

  // 2. Copy. A full-content task (the triggering read covered the whole
  // file) is a single put of bytes already in memory; anything else is
  // the chunked pipeline: donated prefix first, then streamed PFS reads.
  std::uint32_t crc = 0;
  Status written = Status::Ok();
  if (!task.donation.bytes.empty() &&
      task.donation.bytes.size() == file->size) {
    crc = Crc32c(task.donation.bytes);
    written = destination.Write(file->name, task.donation.bytes);
    if (written.ok()) {
      donated_bytes_.fetch_add(file->size, std::memory_order_relaxed);
    }
  } else {
    written = StreamCopy(task, destination, crc);
  }
  if (!written.ok()) {
    MLOG_WARN << "placement copy of '" << file->name << "' to tier '"
              << destination.name() << "' failed: " << written;
    // A chunked copy may have landed a partial file; remove it so a
    // retry starts clean and readers never see a truncated copy.
    (void)destination.Delete(file->name);
    destination.Release(file->size);
    inflight_bytes_.fetch_sub(file->size, std::memory_order_relaxed);
    RecordStagingFailure(file);
    return;
  }

  // 3. Optionally read the copy back (chunked, bounded memory) and prove
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
    inflight_bytes_.fetch_sub(file->size, std::memory_order_relaxed);
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
  if (task.tenant.low_retention) {
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
  if (task.lane == StagingLane::kPrefetch) {
    prefetch_completed_.fetch_add(1, std::memory_order_relaxed);
  }
  inflight_bytes_.fetch_sub(file->size, std::memory_order_relaxed);
}

bool PlacementHandler::DropCopy(const FileInfoPtr& file, DropReason reason) {
  FileInfo& f = *file;
  // Claim the file: kPlaced -> kFetching stops concurrent readers from
  // trusting its level while the copy is deleted.
  PlacementState expected = PlacementState::kPlaced;
  if (!f.state.compare_exchange_strong(expected, PlacementState::kFetching,
                                       std::memory_order_acq_rel)) {
    return false;  // already being fetched/evicted/quarantined elsewhere
  }
  // Read pins (ISSUE 6): a demand read is mid-flight on this file's
  // staged copy, so an eviction reverts the claim — its bytes stay until
  // the read ends. The pin is checked after the claim so a reader that
  // pinned first is always honoured; one that pins after this check
  // degrades to the pre-pinning behaviour (kNotFound -> PFS fallback).
  // Corrupt or vanished bytes and end-of-job cleanup do not wait for
  // readers.
  if (reason == DropReason::kEvict &&
      f.read_pins.load(std::memory_order_acquire) > 0) {
    f.state.store(PlacementState::kPlaced, std::memory_order_release);
    eviction_pinned_skips_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const int level = f.level.load(std::memory_order_acquire);
  if (level == hierarchy_.pfs_level()) {
    // Nothing staged (stale snapshot); leave the file as we found it.
    f.state.store(PlacementState::kPlaced, std::memory_order_release);
    return false;
  }
  StorageDriver& tier = hierarchy_.Level(level);
  f.level.store(hierarchy_.pfs_level(), std::memory_order_release);
  // Retract the cluster-directory advertisement before the bytes go.
  if (peer_view_ != nullptr) peer_view_->OnDropped(f.name);
  if (reason != DropReason::kQuarantine) f.AbortFetch(/*permanently=*/false);
  if (const Status deleted = tier.Delete(f.name);
      deleted.ok() || deleted.code() == StatusCode::kNotFound) {
    tier.Release(f.size);
  }
  const bool was_low_retention = NoteCopyDropped(f);

  obs::EventTracer& tracer = obs::EventTracer::Global();
  switch (reason) {
    case DropReason::kEvict: {
      if (const qos::TenantContext* requester = qos::CurrentTenant();
          requester != nullptr && requester->low_retention &&
          !was_low_retention) {
        // Unreachable under EvictOne's guard; counted so a future
        // regression shows up in `qos.cross_class_evictions`.
        cross_class_evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      evictions_.fetch_add(1, std::memory_order_relaxed);
      evicted_bytes_.fetch_add(f.size, std::memory_order_relaxed);
      if (tracer.enabled()) {
        tracer.RecordInstant("placement.evict", "placement",
                             "\"file\":" + obs::JsonQuote(f.name) +
                                 ",\"bytes\":" + std::to_string(f.size) +
                                 ",\"tier\":" + obs::JsonQuote(tier.name()));
      }
      break;
    }
    case DropReason::kQuarantine:
      quarantined_.fetch_add(1, std::memory_order_relaxed);
      if (tracer.enabled()) {
        tracer.RecordInstant("placement.quarantine", "resilience",
                             "\"file\":" + obs::JsonQuote(f.name) +
                                 ",\"tier\":" + obs::JsonQuote(tier.name()) +
                                 ",\"phase\":\"read\"");
      }
      MLOG_WARN << "quarantined corrupt copy of '" << f.name << "' on tier '"
                << tier.name() << "'; reads fall back to the PFS";
      break;
    case DropReason::kCleanup:
    case DropReason::kVanished:
      break;
  }
  return true;
}

bool PlacementHandler::QuarantineCopy(const FileInfoPtr& file) {
  if (!DropCopy(file, DropReason::kQuarantine)) return false;
  // A corrupt copy counts toward the per-file cap so persistent
  // corruption eventually parks the file as unplaceable; with
  // restage_after_quarantine off the file is parked immediately.
  const int failures =
      file->fetch_failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  file->AbortFetch(/*permanently=*/!resilience_.restage_after_quarantine ||
                   failures >= resilience_.max_placement_attempts);
  return true;
}

bool PlacementHandler::CleanupCopy(const FileInfoPtr& file) {
  if (pack::ChunkMap* cm = file->chunk_map();
      cm != nullptr && cm->ResidentCount() > 0) {
    return EvictChunks(file) > 0;
  }
  return DropCopy(file, DropReason::kCleanup);
}

bool PlacementHandler::EvictOne(const FileInfoPtr& victim) {
  // Scan resistance (ISSUE 10): a low-retention requester may only
  // evict other low-retention copies — it can never push out a demand
  // working set, so `qos.cross_class_evictions` stays zero by
  // construction.
  const qos::TenantContext* requester = qos::CurrentTenant();
  if (requester != nullptr && requester->low_retention &&
      !victim->low_retention.load(std::memory_order_acquire)) {
    return false;
  }
  // Chunk-resident victims (pack mode) hold per-chunk quota and tier
  // objects, not a whole-file copy: drop them through the chunk path.
  if (pack::ChunkMap* cm = victim->chunk_map();
      cm != nullptr && cm->ResidentCount() > 0) {
    return EvictChunks(victim) > 0;
  }
  return DropCopy(victim, DropReason::kEvict);
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
  if (!Evicts()) return std::nullopt;
  // The run schedule ranks when installed under an evicting policy;
  // without it a prefetch is a guess, which must not destroy placed data,
  // and the policy ranks for the demand lane.
  const bool demand = lane == StagingLane::kDemand;
  std::optional<std::vector<FileInfoPtr>> ranked;
  if (policy_->EvictsUnderPressure()) {
    ranked = schedule_.SelectVictims(metadata_, *file, demand);
  }
  if (!ranked.has_value()) {
    if (!demand) return std::nullopt;
    ranked = policy_->SelectVictims(metadata_, *file);
  }

  // This loop claims and drops. Re-try the reservation after each
  // successful eviction — freed space is first-come-first-served under
  // concurrent workers, so the reservation is the only proof.
  // Low-retention (scan) copies are tried first: they are explicitly
  // marked expendable, so demand working sets survive pressure longest.
  std::vector<FileInfoPtr>& victims = *ranked;
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
    EndJoinable(*task.file);
    return;
  }
  pack::ChunkMap* cm = task.file->chunk_map();
  if (cm == nullptr) return;
  for (const std::uint32_t c : task.chunks) cm->ReleaseClaim(c);
  std::lock_guard lock(cm->placement_mutex());
  cm->MaybeResetTier();
}

pack::ChunkMap::EvictedRun PlacementHandler::DropRunLocked(
    const FileInfo& file, pack::ChunkMap& cm, StorageDriver& tier,
    std::uint32_t chunk) {
  const pack::ChunkMap::EvictedRun run = cm.TryEvictRun(chunk);
  if (run.chunks > 0) {
    (void)tier.Delete(pack::ChunkObjectName(file.name, run.start));
    tier.Release(run.stored_bytes);
  }
  return run;
}

void PlacementHandler::FoldBackIfEmptyLocked(FileInfo& file,
                                             pack::ChunkMap& cm) {
  if (cm.ResidentCount() > 0) return;
  cm.MaybeResetTier();
  NoteCopyDropped(file);
  // The file no longer serves anything from a tier; fold it back to
  // PFS-resident through the same claim the whole-file evictor uses
  // (readers mid-lookup fall back to the PFS on kNotFound).
  PlacementState expected = PlacementState::kPlaced;
  if (file.state.compare_exchange_strong(expected, PlacementState::kFetching,
                                         std::memory_order_acq_rel)) {
    file.level.store(hierarchy_.pfs_level(), std::memory_order_release);
    file.AbortFetch(/*permanently=*/false);
  }
}

void PlacementHandler::DropChunkRun(const FileInfoPtr& file,
                                    std::uint32_t chunk) {
  pack::ChunkMap* cm = file->chunk_map();
  if (cm == nullptr) return;
  std::lock_guard lock(cm->placement_mutex());
  const int level = cm->tier();
  if (level < 0 || level == hierarchy_.pfs_level()) return;
  DropRunLocked(*file, *cm, hierarchy_.Level(level), chunk);
  FoldBackIfEmptyLocked(*file, *cm);
}

std::uint64_t PlacementHandler::EvictChunks(const FileInfoPtr& victim) {
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
    for (std::uint32_t c = 0; c < cm->num_chunks(); ++c) {
      const pack::ChunkMap::EvictedRun run = DropRunLocked(vf, *cm, tier, c);
      freed += run.stored_bytes;
      dropped += run.chunks;
    }
    FoldBackIfEmptyLocked(vf, *cm);
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

Result<bool> PlacementHandler::StageRun(
    const StagingTask& task, pack::ChunkMap& cm, std::uint32_t first,
    std::span<const pack::ChunkMap::ChunkMeta> metas,
    std::span<const std::byte> stored) {
  const FileInfoPtr& file = task.file;
  const std::optional<int> level =
      ReserveChunk(file, cm, stored.size(), task.lane);
  if (!level.has_value()) return false;
  StorageDriver& tier = hierarchy_.Level(*level);
  const std::string object = pack::ChunkObjectName(file->name, first);
  Status written = tier.Write(object, stored);
  if (written.ok() && resilience_.verify_staged_writes) {
    std::vector<std::byte> readback(stored.size());
    auto rb = tier.Read(object, 0, readback);
    if (!rb.ok() || rb.value() != stored.size() ||
        Crc32c(std::span<const std::byte>(readback)) != Crc32c(stored)) {
      quarantined_.fetch_add(1, std::memory_order_relaxed);
      written = DataLossError("staged run failed verification: " + object);
    }
  }
  if (!written.ok()) {
    (void)tier.Delete(object);
    tier.Release(stored.size());
    return written;
  }
  const auto last =
      static_cast<std::uint32_t>(first + metas.size() - 1);
  const std::uint64_t logical = cm.ChunkOffset(last) +
                                cm.ChunkLogicalBytes(last) -
                                cm.ChunkOffset(first);
  {
    std::lock_guard lock(cm.placement_mutex());
    if (cm.PublishRun(first, metas) == 0) {
      // First resident run: the file now serves (partially) from a
      // tier. Flip the whole-file state so the eviction policies see it
      // as placed and readers route offset lookups via the map.
      file->fetch_failures.store(0, std::memory_order_relaxed);
      if (task.tenant.low_retention &&
          !file->low_retention.exchange(true, std::memory_order_acq_rel)) {
        low_retention_resident_bytes_.fetch_add(file->size,
                                                std::memory_order_relaxed);
      }
      file->FinishFetch(*level);
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (task.lane == StagingLane::kPrefetch) {
        prefetch_completed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  chunks_staged_.fetch_add(metas.size(), std::memory_order_relaxed);
  chunk_stored_bytes_.fetch_add(stored.size(), std::memory_order_relaxed);
  bytes_staged_.fetch_add(logical, std::memory_order_relaxed);
  return true;
}

void PlacementHandler::PlaceChunks(StagingTask task) {
  const FileInfoPtr file = task.file;
  pack::ChunkMap* cm = file->chunk_map();
  if (cm == nullptr) return;  // claims imply a map; defensive only
  obs::TraceSpan span("pack.stage", "placement");
  std::size_t runs = 0;
  auto trace_args = [&] {
    if (!span.active()) return;
    span.set_args_json("\"file\":" + obs::JsonQuote(file->name) +
                       ",\"chunks\":" + std::to_string(task.chunks.size()) +
                       ",\"runs\":" + std::to_string(runs) +
                       ",\"lane\":\"" + LaneName(task.lane) + "\"");
  };
  if (RefuseScanStaging(task)) {
    trace_args();
    return;
  }

  // Each maximal run of consecutive claimed chunks stages as one tier
  // object holding the chunks' stored bytes back to back, cut where the
  // run's worst-case stored bytes would overflow one pooled buffer (so
  // its logical bytes fit the lease too). The run's logical bytes come
  // from the donation, or from the pooled lease that the PFS fills once
  // per undonated stretch; the encoder's scratch is reused across runs.
  const std::uint64_t cap =
      std::min<std::uint64_t>(pool_.chunk_bytes(), UINT32_MAX);
  auto max_stored = [&](std::uint32_t c) -> std::uint64_t {
    const std::uint32_t n = cm->ChunkLogicalBytes(c);
    return codec_ != nullptr ? codec_->MaxStoredSize(n) : n;
  };
  std::optional<BufferPool::Lease> lease;
  std::vector<std::byte> encoded;    // the run's stored bytes (lz)
  std::vector<std::byte> chunk_out;  // one chunk's stored bytes (lz)
  std::vector<pack::ChunkMap::ChunkMeta> metas;

  std::size_t next = 0;  // first task chunk not yet published
  bool rejected = false;
  Status failure = Status::Ok();
  while (next < task.chunks.size()) {
    const std::uint32_t first = task.chunks[next];
    std::uint32_t count = 1;
    for (std::uint64_t worst = max_stored(first);
         next + count < task.chunks.size() &&
         task.chunks[next + count] == first + count &&
         worst + max_stored(first + count) <= cap;
         ++count) {
      worst += max_stored(first + count);
    }
    const std::uint64_t run_offset = cm->ChunkOffset(first);
    auto source = SliceSource(
        task, run_offset,
        static_cast<std::size_t>(cm->ChunkOffset(first + count - 1) +
                                 cm->ChunkLogicalBytes(first + count - 1) -
                                 run_offset),
        lease);
    if (!source.ok()) {
      failure = source.status();
      break;
    }
    const std::span<const std::byte> logical = source.value();

    metas.clear();
    encoded.clear();
    for (std::uint32_t c = first; c < first + count && failure.ok(); ++c) {
      const std::span<const std::byte> chunk = logical.subspan(
          static_cast<std::size_t>(cm->ChunkOffset(c) - run_offset),
          cm->ChunkLogicalBytes(c));
      pack::ChunkMap::ChunkMeta& meta = metas.emplace_back();
      meta.crc_logical = Crc32c(chunk);
      meta.stored_bytes = static_cast<std::uint32_t>(chunk.size());
      meta.crc_stored = meta.crc_logical;
      if (codec_ != nullptr) {
        failure = codec_->Encode(chunk, chunk_out);
        encoded.insert(encoded.end(), chunk_out.begin(), chunk_out.end());
        meta.stored_bytes = static_cast<std::uint32_t>(chunk_out.size());
        meta.crc_stored = Crc32c(chunk_out);
      }
    }
    if (!failure.ok()) break;
    // Identity codec: the stored run is the logical run itself.
    Result<bool> staged =
        StageRun(task, *cm, first, metas,
                 codec_ != nullptr ? std::span<const std::byte>(encoded)
                                   : logical);
    if (!staged.ok()) {
      failure = staged.status();
      break;
    }
    if (!staged.value()) {
      rejected = true;
      break;
    }
    ++runs;
    next += count;
  }
  trace_args();

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
  if (TracksSchedule()) schedule_.Install(sequence);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("placement.schedule", "placement",
                         "\"accesses\":" + std::to_string(sequence.size()) +
                             ",\"policy\":" + obs::JsonQuote(policy_->Name()) +
                             ",\"ranked_by\":" +
                             obs::JsonQuote(EvictionRanking()));
  }
}

void PlacementHandler::NoteAccess(const FileInfo& file) {
  policy_->OnAccess(file);
  if (TracksSchedule()) schedule_.NoteAccess(file.name);
}

std::string PlacementHandler::EvictionRanking() const {
  if (!policy_->EvictsUnderPressure() || schedule_.length() == 0) {
    return "policy (" + policy_->Name() + ")";
  }
  return "schedule (clock " + std::to_string(schedule_.clock()) + " of " +
         std::to_string(schedule_.length()) + " accesses)";
}

void PlacementHandler::Drain() {
  std::unique_lock lock(mu_);
  drain_cv_.wait(lock, [this] {
    return queue_.empty() && active_ == 0;
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
  s.donation_held_bytes =
      donation_held_bytes_.load(std::memory_order_relaxed);
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
  s.inflight_bytes = inflight_bytes_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    for (int c = 0; c < qos::kNumIoClasses; ++c) {
      s.queue_depth[static_cast<std::size_t>(c)] = queue_.class_depth(c);
    }
  }
  s.buffer_pool_used_bytes = pool_.in_use_bytes();
  s.buffer_pool_capacity_bytes = pool_.capacity_bytes();
  return s;
}

}  // namespace monarch::core

#include "core/placement_handler.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>
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

double PlacementHandler::TaskCost(const StagingTask& task) noexcept {
  if (task.read_ahead >= 0) return static_cast<double>(task.file->size);
  const pack::ChunkMap& cm = *task.file->chunk_map();
  double bytes = 0;
  for (const std::uint32_t c : task.chunks) bytes += cm.ChunkLogicalBytes(c);
  return bytes;
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
  file.Transition(0, FileInfo::kLookahead);
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
      budget_(std::make_shared<Budget>(options.staging_buffer_bytes)) {
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
  // reads exactly one chunk per lease. Without pack mode a chunk is a
  // whole buffer, so every run is one chunk, and a file that fits one
  // buffer stages, evicts and serves as one tier object.
  options_.pack.chunk_bytes =
      options_.pack.enabled
          ? std::min<std::uint64_t>(
                std::max<std::uint64_t>(1, options_.pack.chunk_bytes),
                pool_.chunk_bytes())
          : pool_.chunk_bytes();
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
  DropDeposits();
}

void PlacementHandler::ScheduleChunkPlacement(
    FileInfoPtr file, std::vector<std::uint32_t> chunks, Donation donation,
    StagingLane lane, std::uint32_t neighbours) {
  if (chunks.empty()) return;
  Enqueue({std::move(file), std::move(donation), lane, std::move(chunks),
           SnapshotTenant(), neighbours});
}

std::vector<std::uint32_t> PlacementHandler::Claim(const FileInfoPtr& file,
                                                   std::uint32_t first,
                                                   std::uint32_t stop,
                                                   bool whole, bool joinable) {
  if (file->Has(FileInfo::kParked)) return {};
  pack::ChunkMap& cm = *file->EnsureChunkMap(options_.pack.chunk_bytes);
  std::vector<std::uint32_t> chunks;
  for (std::uint32_t c = first; c < std::min(stop, cm.num_chunks()); ++c) {
    // Joinable from the first claim on, and advertised under the
    // placement mutex with it: a claimer that loses this claim and then
    // takes the mutex (Monarch::StageForPeer) finds the copy joinable.
    std::unique_lock lock(cm.placement_mutex(), std::defer_lock);
    if (joinable && chunks.empty()) lock.lock();
    if (cm.TryClaim(c)) {
      if (lock.owns_lock()) BeginJoinable(*file);
      chunks.push_back(c);
    } else if (whole) {
      // Another task holds chunk c or it is resident: only our claims go.
      if (!chunks.empty()) ReleaseClaims(*file, chunks);
      return {};
    }
  }
  return chunks;
}

PlacementHandler::BudgetCharge PlacementHandler::Charge(std::uint64_t bytes,
                                                        BudgetGauge gauge) {
  // A donation saves a PFS read, a deposit only a tier read or a fabric
  // transfer, so deposits make room for a donation.
  if (gauge == kDonation && !ReclaimDeposits(bytes)) return {};
  {
    std::lock_guard lock(budget_->mu);
    if (budget_->donations + budget_->deposits + bytes > budget_->limit) {
      return {};
    }
    (*budget_).*gauge += bytes;
  }
  return {budget_, gauge, bytes};
}

storage::ReadView PlacementHandler::Held(storage::ReadView bytes,
                                         BudgetCharge charge) {
  struct Holder {
    storage::ReadView bytes;
    BudgetCharge charge;
  };
  const std::span<const std::byte> data = bytes.data();
  return storage::ReadView(
      data, std::make_shared<const Holder>(Holder{std::move(bytes),
                                                  std::move(charge)}),
      /*zero_copy=*/true);
}

std::uint64_t PlacementHandler::DonationRoom() const noexcept {
  std::lock_guard lock(budget_->mu);
  return budget_->limit - std::min(budget_->limit, budget_->donations);
}

PlacementHandler::Donation PlacementHandler::Donate(
    std::uint64_t offset, std::span<const std::byte> bytes) {
  // Queued donations are capped by the staging-memory budget: past it,
  // the task goes without and re-reads those bytes from the PFS.
  if (bytes.empty()) return {};
  BudgetCharge charge = Charge(bytes.size(), kDonation);
  if (!charge) return {};
  auto copy = std::make_shared<const std::vector<std::byte>>(bytes.begin(),
                                                             bytes.end());
  return {offset, Held(storage::ReadView(*copy, copy, /*zero_copy=*/false),
                       std::move(charge))};
}

Result<bool> PlacementHandler::DepositRun(const FileInfoPtr& file, int level,
                                          std::uint32_t start,
                                          std::size_t bytes,
                                          std::span<const std::uint32_t> crcs,
                                          bool ahead) {
  // A deposit never takes a donation's room.
  BudgetCharge charge = Charge(bytes, kDeposit);
  if (!charge) return false;
  auto whole = hierarchy_.Level(level).ReadZeroCopy(
      pack::ChunkObjectName(file->name, start), 0, bytes);
  if (!whole.ok()) return whole.status();
  if (whole->size() != bytes) return false;
  pack::ChunkMap& cm = *file->chunk_map();
  for (std::size_t k = 0; k < crcs.size(); ++k) {
    const auto c = static_cast<std::uint32_t>(start + k);
    if (Crc32c(whole->data().subspan(
            static_cast<std::size_t>(cm.ChunkOffset(c) - cm.ChunkOffset(start)),
            cm.ChunkLogicalBytes(c))) != crcs[k]) {
      return false;
    }
  }
  Deposit deposit{start, Held(std::move(whole).value(), std::move(charge)),
                  /*served=*/false, ahead};
  std::uint64_t unread = 0;
  if (level == hierarchy_.peer_level()) {
    unread = file->AddDeposit(std::move(deposit));
  } else {
    // Under the placement mutex, like a publish: a run dropped since it
    // was read keeps no deposit.
    std::lock_guard lock(cm.placement_mutex());
    if (!cm.IsResident(start) || cm.Meta(start).run_start != start) {
      return false;
    }
    unread = file->AddDeposit(std::move(deposit));
  }
  readahead_unread_.fetch_add(unread, std::memory_order_relaxed);
  NoteDepositor(file);
  return true;
}

bool PlacementHandler::ReclaimDeposits(std::uint64_t bytes) {
  const auto fits = [&] {
    std::lock_guard lock(budget_->mu);
    return budget_->donations + budget_->deposits + bytes <= budget_->limit;
  };
  while (!fits()) {
    FileInfoPtr oldest;
    {
      std::lock_guard lock(deposits_mu_);
      if (depositors_.empty()) return false;
      oldest = std::move(depositors_.front());
      depositors_.pop_front();
    }
    readahead_unread_.fetch_add(oldest->DropDeposits(),
                                std::memory_order_relaxed);
  }
  return true;
}

void PlacementHandler::NoteDepositor(const FileInfoPtr& file) {
  std::lock_guard lock(deposits_mu_);
  depositors_.push_back(file);
  // An entry outlives the deposits it was pushed for: once the list
  // doubles, keep one entry per file that still holds any.
  if (depositors_.size() >= prune_depositors_at_) {
    std::unordered_set<const FileInfo*> seen;
    std::erase_if(depositors_, [&seen](const FileInfoPtr& f) {
      return !f->HasDeposits() || !seen.insert(f.get()).second;
    });
    prune_depositors_at_ = std::max<std::size_t>(64, 2 * depositors_.size());
  }
}

void PlacementHandler::DropDeposits() {
  std::deque<FileInfoPtr> all;
  {
    std::lock_guard lock(deposits_mu_);
    all.swap(depositors_);
  }
  for (const FileInfoPtr& file : all) {
    readahead_unread_.fetch_add(file->DropDeposits(),
                                std::memory_order_relaxed);
  }
}

void PlacementHandler::BeginJoinable(FileInfo& file) {
  std::unique_lock lock(copy_edge_mu_, std::defer_lock);
  if (peer_view_ != nullptr) lock.lock();
  const bool edge =
      (file.Transition(FileInfo::kJoinable) & FileInfo::kJoinable) == 0;
  if (edge && peer_view_ != nullptr) peer_view_->OnCopyBegin(file.name);
}

void PlacementHandler::EndJoinable(FileInfo& file) {
  std::unique_lock lock(copy_edge_mu_, std::defer_lock);
  if (peer_view_ != nullptr) lock.lock();
  const bool edge =
      (file.Transition(0, FileInfo::kJoinable) & FileInfo::kJoinable) != 0;
  if (edge && peer_view_ != nullptr) peer_view_->OnCopyEnd(file.name);
}

void PlacementHandler::Enqueue(StagingTask task) {
  if (stopped_.load(std::memory_order_relaxed)) {
    // A read-ahead holds nothing before its push.
    if (task.read_ahead < 0) DropUnrun(task);
    return;
  }
  FileInfo& file = *task.file;
  const bool prefetch = task.lane == StagingLane::kPrefetch;
  // Before the push: the worker's clear can never precede this set.
  if (!prefetch) BeginJoinable(file);
  {
    std::lock_guard lock(mu_);
    // One read-ahead per file at a time, marked under mu_: a reader that
    // finds the mark finds the task queued or running (JoinReadAhead).
    if (task.read_ahead >= 0) {
      if (file.Has(FileInfo::kReadingAhead)) return;
      file.Transition(FileInfo::kReadingAhead);
    }
    scheduled_.fetch_add(1, std::memory_order_relaxed);
    if (prefetch) prefetch_scheduled_.fetch_add(1, std::memory_order_relaxed);
    // A donated prefetch is a stretch read's neighbour whose claim was
    // joinable (Claim). Queued, it is not: wake its joiners so they
    // promote it. Under mu_, so they find it queued and no worker can
    // have started it.
    const bool handed_off = prefetch && !task.donation.bytes.empty();
    PushLocked(std::move(task));
    if (handed_off) EndJoinable(file);
  }
  cv_.notify_one();
}

void PlacementHandler::DropUnrun(const StagingTask& task) {
  if (task.read_ahead >= 0) {
    prefetch_cancelled_.fetch_add(1, std::memory_order_relaxed);
    task.file->Transition(0, FileInfo::kReadingAhead);
    return;
  }
  if (task.lane == StagingLane::kPrefetch) CancelPrefetch(*task.file);
  // Back to the retryable PFS-only state (chunk tasks hand their chunk
  // claims back) so a later read can re-trigger staging.
  ReleaseClaims(*task.file, task.chunks);
}

void PlacementHandler::ScheduleReadAhead(FileInfoPtr file, int level) {
  StagingTask task;
  task.file = std::move(file);
  task.lane = StagingLane::kPrefetch;
  task.tenant = SnapshotTenant();
  task.read_ahead = level;
  Enqueue(std::move(task));
}

bool PlacementHandler::JoinReadAhead(const FileInfoPtr& file) {
  std::optional<StagingTask> queued;
  {
    std::lock_guard lock(mu_);
    queued = queue_.Extract([&file](const StagingTask& t) {
      return t.file == file && t.read_ahead >= 0;
    });
  }
  if (!queued.has_value()) {
    // Running (or just finished): its worker clears the mark.
    return file->Await(FileInfo::kReadingAhead);
  }
  // The reader overtook the queued task: it reads the runs itself, now,
  // so they are its own deposits, not a prefetch's.
  prefetch_promoted_.fetch_add(1, std::memory_order_relaxed);
  ReadAhead(*queued, /*ahead=*/false);
  file->Transition(0, FileInfo::kReadingAhead);
  drain_cv_.notify_all();
  return true;
}

bool PlacementHandler::PromoteToDemand(const FileInfoPtr& file) {
  // The promoting thread is the overtaking demand reader: the task is
  // re-queued on that reader's class so the copy inherits its urgency.
  const qos::TenantContext promoter = SnapshotTenant();
  {
    std::lock_guard lock(mu_);
    std::optional<StagingTask> found =
        queue_.Extract([&file](const StagingTask& t) {
          return t.file == file && t.lane == StagingLane::kPrefetch &&
                 t.read_ahead < 0;
        });
    if (!found.has_value()) return false;
    found->lane = StagingLane::kDemand;
    found->tenant = promoter;
    // Still under mu_, so no worker can have popped (and finished) the
    // task before it is marked.
    BeginJoinable(*found->file);
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
  for (const StagingTask& task : cancelled) DropUnrun(task);
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
      // A running copy is joinable whatever its lane, from before mu_
      // drops: a reader that no longer finds the task queued
      // (PromoteToDemand) finds it joinable. Its end — publish, failure
      // or refusal — wakes the joiners. A read-ahead keeps its own mark.
      if (task.read_ahead < 0) BeginJoinable(*task.file);
    }
    // Re-install the scheduling thread's tenant on this worker so every
    // byte the copy moves stays attributable across the thread hop.
    const qos::TenantContext tenant = task.tenant;
    qos::ScopedTenant scope(tenant);
    const FileInfoPtr file = task.file;
    if (task.read_ahead >= 0) {
      ReadAhead(task, /*ahead=*/true);
      file->Transition(0, FileInfo::kReadingAhead);
    } else {
      PlaceChunks(std::move(task));
      EndJoinable(*file);
    }
    {
      std::lock_guard lock(mu_);
      --active_;
    }
    drain_cv_.notify_all();
  }
}

void PlacementHandler::RecordStagingFailure(FileInfo& file) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  file.Transition(0, FileInfo::kLookahead);
  const int failures =
      file.fetch_failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (failures < resilience_.max_placement_attempts) {
    retries_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  abandoned_.fetch_add(1, std::memory_order_relaxed);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("placement.abandoned", "resilience",
                         "\"file\":" + obs::JsonQuote(file.name) +
                             ",\"attempts\":" + std::to_string(failures));
  }
  MLOG_WARN << "giving up staging '" << file.name << "' after " << failures
            << " failed attempts; it stays PFS-resident";
  Park(file);
}

void PlacementHandler::Park(FileInfo& file) {
  pack::ChunkMap& cm = *file.chunk_map();
  std::lock_guard lock(cm.placement_mutex());
  DropAllLocked(file, cm, /*park=*/true);
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
  task.file->Transition(FileInfo::kStageRefused);
  ReleaseClaims(*task.file, task.chunks);
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
    donated = donation.bytes.data().subspan(
        static_cast<std::size_t>(donated_begin - donation.offset),
        static_cast<std::size_t>(donated_end - donated_begin));
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

  // This loop drops victims. Re-try the reservation after each
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
      if (vcm == nullptr || vcm->tier() != *level) continue;
    }
    if (!EvictChunks(victim)) continue;
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

void PlacementHandler::ReleaseClaims(FileInfo& file,
                                     std::span<const std::uint32_t> chunks) {
  pack::ChunkMap& cm = *file.chunk_map();
  for (const std::uint32_t c : chunks) cm.ReleaseClaim(c);
  {
    std::lock_guard lock(cm.placement_mutex());
    cm.MaybeResetTier();
  }
  EndJoinable(file);
}

pack::ChunkMap::EvictedRun PlacementHandler::DropRunLocked(
    FileInfo& file, pack::ChunkMap& cm, StorageDriver& tier,
    std::uint32_t chunk) {
  const bool advertised = cm.ResidentCount() == cm.num_chunks();
  const pack::ChunkMap::EvictedRun run = cm.TryEvictRun(chunk);
  if (run.chunks > 0) {
    readahead_unread_.fetch_add(file.DropDeposit(run.start),
                                std::memory_order_relaxed);
    // Peers read only fully resident files: retract the advertisement
    // before the first run's bytes go.
    if (advertised && peer_view_ != nullptr) peer_view_->OnDropped(file.name);
    (void)tier.Delete(pack::ChunkObjectName(file.name, run.start));
    tier.Release(run.stored_bytes);
  }
  return run;
}

void PlacementHandler::FoldBackLocked(FileInfo& file, pack::ChunkMap& cm,
                                      bool park) {
  if (cm.ResidentCount() > 0) return;
  cm.MaybeResetTier();
  NoteCopyDropped(file);
  // The file no longer serves anything from a tier: back to PFS-resident
  // (readers mid-lookup fall back to the PFS on kNotFound), for good
  // when parked.
  if (park) file.Transition(FileInfo::kParked);
}

pack::ChunkMap::EvictedRun PlacementHandler::DropAllLocked(FileInfo& file,
                                                           pack::ChunkMap& cm,
                                                           bool park) {
  pack::ChunkMap::EvictedRun all;
  if (const int level = cm.tier(); level >= 0) {
    StorageDriver& tier = hierarchy_.Level(level);
    for (std::uint32_t c = 0; c < cm.num_chunks(); ++c) {
      const pack::ChunkMap::EvictedRun run = DropRunLocked(file, cm, tier, c);
      all.chunks += run.chunks;
      all.stored_bytes += run.stored_bytes;
    }
  }
  FoldBackLocked(file, cm, park);
  return all;
}

void PlacementHandler::DropChunkRun(const FileInfoPtr& file,
                                    std::uint32_t chunk, bool corrupt) {
  pack::ChunkMap& cm = *file->chunk_map();
  std::lock_guard lock(cm.placement_mutex());
  const int level = cm.tier();
  if (level < 0) return;
  StorageDriver& tier = hierarchy_.Level(level);
  if (DropRunLocked(*file, cm, tier, chunk).chunks == 0 || !corrupt) {
    FoldBackLocked(*file, cm, /*park=*/false);
    return;
  }
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("placement.quarantine", "resilience",
                         "\"file\":" + obs::JsonQuote(file->name) +
                             ",\"tier\":" + obs::JsonQuote(tier.name()) +
                             ",\"phase\":\"read\"");
  }
  // A corrupt run counts toward the per-file cap so persistent corruption
  // eventually parks the file as unplaceable; with
  // restage_after_quarantine off it is parked at once.
  const int failures =
      file->fetch_failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (!resilience_.restage_after_quarantine ||
      failures >= resilience_.max_placement_attempts) {
    DropAllLocked(*file, cm, /*park=*/true);
  } else {
    FoldBackLocked(*file, cm, /*park=*/false);
  }
}

bool PlacementHandler::CleanupCopy(const FileInfoPtr& file) {
  pack::ChunkMap* cm = file->chunk_map();
  if (cm == nullptr) return false;
  std::lock_guard lock(cm->placement_mutex());
  return DropAllLocked(*file, *cm, /*park=*/false).chunks > 0;
}

bool PlacementHandler::EvictChunks(const FileInfoPtr& victim) {
  FileInfo& vf = *victim;
  // Scan resistance: a low-retention requester may only
  // evict other low-retention copies — it can never push out a demand
  // working set, so `qos.cross_class_evictions` stays zero by
  // construction.
  const qos::TenantContext* requester = qos::CurrentTenant();
  const bool scan = requester != nullptr && requester->low_retention;
  if (scan && !vf.low_retention.load(std::memory_order_acquire)) return false;
  // Read pins: an active read keeps every resident run of the
  // file until it unpins.
  if (vf.read_pins.load(std::memory_order_acquire) > 0) {
    eviction_pinned_skips_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  pack::ChunkMap* cm = vf.chunk_map();
  if (cm == nullptr) return false;
  int level = -1;
  bool was_low_retention = false;
  pack::ChunkMap::EvictedRun dropped;
  {
    std::lock_guard lock(cm->placement_mutex());
    level = cm->tier();
    was_low_retention = vf.low_retention.load(std::memory_order_acquire);
    dropped = DropAllLocked(vf, *cm, /*park=*/false);
  }
  if (dropped.chunks == 0) return false;
  // Unreachable under the guard above; counted so a future regression
  // shows up in `qos.cross_class_evictions`.
  if (scan && !was_low_retention) {
    cross_class_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  evictions_.fetch_add(1, std::memory_order_relaxed);
  chunks_evicted_.fetch_add(dropped.chunks, std::memory_order_relaxed);
  evicted_bytes_.fetch_add(dropped.stored_bytes, std::memory_order_relaxed);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant(
        "placement.evict", "placement",
        "\"file\":" + obs::JsonQuote(vf.name) +
            ",\"bytes\":" + std::to_string(dropped.stored_bytes) +
            ",\"chunks\":" + std::to_string(dropped.chunks) +
            ",\"tier\":" + obs::JsonQuote(hierarchy_.Level(level).name()));
  }
  return true;
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

Status PlacementHandler::StageRun(
    const StagingTask& task, pack::ChunkMap& cm, int level,
    std::uint32_t first, std::span<const pack::ChunkMap::ChunkMeta> metas,
    std::span<const std::byte> stored) {
  const FileInfoPtr& file = task.file;
  StorageDriver& tier = hierarchy_.Level(level);
  const std::string object = pack::ChunkObjectName(file->name, first);
  Status written = tier.Write(object, stored);
  // Optionally read the run back and prove the bytes landed intact: a
  // corrupted staged run must degrade to a failed placement, never get
  // published as a serving replica. Equal bytes imply equal CRCs.
  std::unique_ptr<std::byte[]> readback;
  if (written.ok() && resilience_.verify_staged_writes) {
    readback = std::make_unique_for_overwrite<std::byte[]>(stored.size());
    auto rb = tier.Read(object, 0,
                        std::span<std::byte>(readback.get(), stored.size()));
    if (!rb.ok() || rb.value() != stored.size() ||
        !std::equal(stored.begin(), stored.end(), readback.get())) {
      quarantined_.fetch_add(1, std::memory_order_relaxed);
      obs::EventTracer& tracer = obs::EventTracer::Global();
      if (tracer.enabled()) {
        tracer.RecordInstant("placement.quarantine", "resilience",
                             "\"file\":" + obs::JsonQuote(file->name) +
                                 ",\"tier\":" + obs::JsonQuote(tier.name()) +
                                 ",\"phase\":\"stage\"");
      }
      written = DataLossError("staged run failed verification: " + object);
    }
  }
  if (!written.ok()) {
    // A failed write may have landed part of the run; remove it so a
    // retry starts clean and readers never see a truncated object.
    (void)tier.Delete(object);
    tier.Release(stored.size());
    return written;
  }
  chunks_copied_.fetch_add(1, std::memory_order_relaxed);
  const auto last =
      static_cast<std::uint32_t>(first + metas.size() - 1);
  const std::uint64_t logical = cm.ChunkOffset(last) +
                                cm.ChunkLogicalBytes(last) -
                                cm.ChunkOffset(first);
  // A run with a reader coming — a look-ahead or read-ahead prefetch's
  // next visit, or an open visit or a read joined to this copy — keeps
  // its verified bytes as a deposit, so that reader does not read them
  // back from the tier a second time; with verification off it keeps a
  // copy of the bytes written. Codec runs are served decoded, never from
  // their stored bytes.
  Deposit deposit;
  deposit.run_start = first;
  deposit.ahead = task.lane == StagingLane::kPrefetch &&
                  file->Has(FileInfo::kLookahead);
  if (codec_ == nullptr &&
      (file->readers_coming.load(std::memory_order_acquire) > 0 ||
       deposit.ahead)) {
    if (BudgetCharge charge = Charge(stored.size(), kDeposit)) {
      if (readback == nullptr) {
        readback = std::make_unique_for_overwrite<std::byte[]>(stored.size());
        std::memcpy(readback.get(), stored.data(), stored.size());
      }
      const std::span<const std::byte> bytes(readback.get(), stored.size());
      deposit.bytes = Held(
          storage::ReadView(bytes,
                            std::shared_ptr<const std::byte[]>(
                                std::move(readback)),
                            /*zero_copy=*/false),
          std::move(charge));
    }
  }
  const bool deposited = !deposit.bytes.empty();
  {
    std::lock_guard lock(cm.placement_mutex());
    if (file->Has(FileInfo::kParked)) {
      // A racing task of this file parked it: publishing would un-park it.
      (void)tier.Delete(object);
      tier.Release(stored.size());
      return FailedPreconditionError("staging run of a parked file: " +
                                     object);
    }
    const std::uint32_t before = cm.PublishRun(first, metas);
    // Under the placement mutex, so a drop of the run drops it too. The
    // run's own verified bytes, or none, replace any deposit a peer read
    // left for it.
    readahead_unread_.fetch_add(deposited
                                    ? file->AddDeposit(std::move(deposit))
                                    : file->DropDeposit(first),
                                std::memory_order_relaxed);
    if (before == 0) {
      // First resident run: the file now serves (partially) from a
      // tier, so the eviction policies see it as placed.
      file->fetch_failures.store(0, std::memory_order_relaxed);
      if (task.tenant.low_retention &&
          !file->low_retention.exchange(true, std::memory_order_acq_rel)) {
        low_retention_resident_bytes_.fetch_add(file->size,
                                                std::memory_order_relaxed);
      }
      completed_.fetch_add(1, std::memory_order_relaxed);
      // A look-ahead copy a demand read promoted still counts: its first
      // tier read is a prefetch hit.
      if (task.lane == StagingLane::kPrefetch ||
          file->Has(FileInfo::kLookahead)) {
        prefetch_completed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Advertise the file to the cluster once every chunk is readable.
    if (before + metas.size() == cm.num_chunks() && peer_view_ != nullptr) {
      peer_view_->OnStaged(file->name, level);
    }
  }
  if (deposited) NoteDepositor(file);
  chunks_staged_.fetch_add(metas.size(), std::memory_order_relaxed);
  chunk_stored_bytes_.fetch_add(stored.size(), std::memory_order_relaxed);
  bytes_staged_.fetch_add(logical, std::memory_order_relaxed);
  return Status::Ok();
}

void PlacementHandler::PlaceChunks(StagingTask task) {
  const FileInfoPtr file = task.file;
  pack::ChunkMap& cm = *file->chunk_map();
  obs::TraceSpan span("placement.stage", "placement");
  std::size_t runs = 0;
  std::uint64_t bytes = 0;
  auto trace_args = [&] {
    if (!span.active()) return;
    span.set_args_json("\"file\":" + obs::JsonQuote(file->name) +
                       ",\"bytes\":" + std::to_string(bytes) +
                       ",\"chunks\":" + std::to_string(task.chunks.size()) +
                       ",\"runs\":" + std::to_string(runs) +
                       ",\"neighbours\":" + std::to_string(task.neighbours) +
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
  // Without a codec a run's stored bytes are its logical bytes, so they
  // are reserved before the PFS is read: a run no tier has room for
  // costs no read.
  const std::uint64_t cap =
      std::min<std::uint64_t>(pool_.chunk_bytes(), UINT32_MAX);
  auto max_stored = [&](std::uint32_t c) -> std::uint64_t {
    const std::uint32_t n = cm.ChunkLogicalBytes(c);
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
    const std::uint64_t run_offset = cm.ChunkOffset(first);
    const std::size_t run_bytes = static_cast<std::size_t>(
        cm.ChunkOffset(first + count - 1) +
        cm.ChunkLogicalBytes(first + count - 1) - run_offset);
    std::optional<int> level;
    if (codec_ == nullptr) {
      level = ReserveChunk(file, cm, run_bytes, task.lane);
      if (!level.has_value()) {
        rejected = true;
        break;
      }
    }
    inflight_bytes_.fetch_add(run_bytes, std::memory_order_relaxed);
    auto source = SliceSource(task, run_offset, run_bytes, lease);
    if (source.ok()) {
      const std::span<const std::byte> logical = source.value();
      metas.clear();
      encoded.clear();
      for (std::uint32_t c = first; c < first + count && failure.ok(); ++c) {
        const std::span<const std::byte> chunk = logical.subspan(
            static_cast<std::size_t>(cm.ChunkOffset(c) - run_offset),
            cm.ChunkLogicalBytes(c));
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
      // Identity codec: the stored run is the logical run itself.
      const std::span<const std::byte> stored =
          codec_ != nullptr ? std::span<const std::byte>(encoded) : logical;
      if (failure.ok() && !level.has_value()) {
        level = ReserveChunk(file, cm, stored.size(), task.lane);
        rejected = !level.has_value();
      }
      if (failure.ok() && level.has_value()) {
        failure = StageRun(task, cm, *level, first, metas, stored);
      } else if (level.has_value()) {
        hierarchy_.Level(*level).Release(stored.size());
      }
    } else {
      failure = source.status();
      if (level.has_value()) hierarchy_.Level(*level).Release(run_bytes);
    }
    inflight_bytes_.fetch_sub(run_bytes, std::memory_order_relaxed);
    if (rejected || !failure.ok()) break;
    ++runs;
    bytes += run_bytes;
    next += count;
  }
  trace_args();

  if (next >= task.chunks.size()) return;  // every chunk published

  if (!rejected) {
    // A file parked meanwhile has nothing left to retry or count.
    if (!file->Has(FileInfo::kParked)) {
      MLOG_WARN << "staging of '" << file->name << "' failed: " << failure;
      RecordStagingFailure(*file);
    }
  } else {
    CountNoSpace(task);  // cancels a prefetch: never a permanent rejection
    if (task.lane == StagingLane::kDemand && Evicts()) {
      // Eviction makes quota headroom dynamic: this rejection only means
      // the policy protected every current resident (or lost the claim
      // races), not that the file can never fit. Leave it retryable, but
      // latch kStageRefused so readers retry once per file open instead
      // of once per chunk.
      file->Transition(FileInfo::kStageRefused);
    } else if (task.lane == StagingLane::kDemand) {
      // No tier can hold the file and nothing will ever be evicted: it
      // stays PFS-resident for the whole job.
      Park(*file);
    }
  }
  // Back out the claims we will not stage only now that the file is
  // settled, so a reader woken by the release finds it parked or
  // retryable, never in between.
  ReleaseClaims(*file, std::span(task.chunks).subspan(next));
}

void PlacementHandler::ReadAhead(const StagingTask& task, bool ahead) {
  FileInfo& file = *task.file;
  pack::ChunkMap* cm = file.chunk_map();
  if (cm == nullptr) return;
  const int level = task.read_ahead;
  const bool remote = level == hierarchy_.peer_level();
  const bool verify = !remote && resilience_.verify_on_read;
  // The runs to read: each chunk of a peer's copy is one run object; on
  // a local tier, the runs its chunk map records as resident there, with
  // their chunks' CRCs when reads are verified.
  struct Run {
    std::uint32_t start = 0;
    std::uint32_t chunks = 0;
    std::vector<std::uint32_t> crcs;
  };
  std::vector<Run> runs;
  {
    std::lock_guard lock(cm->placement_mutex());
    for (std::uint32_t c = 0; c < cm->num_chunks(); ++c) {
      if (remote) {
        runs.push_back({c, 1, {}});
        continue;
      }
      if (cm->tier() != level || !cm->IsResident(c)) continue;
      const pack::ChunkMap::ChunkMeta meta = cm->Meta(c);
      if (meta.run_start == c) {
        runs.push_back({c, 0, {}});
      } else if (runs.empty() || runs.back().start != meta.run_start) {
        continue;  // a run whose head is no longer resident
      }
      ++runs.back().chunks;
      if (verify) runs.back().crcs.push_back(meta.crc_logical);
    }
  }
  obs::TraceSpan span("placement.read_ahead", "placement");
  std::uint32_t deposited = 0;
  std::uint64_t bytes = 0;
  for (const Run& run : runs) {
    if (file.HoldsDeposit(run.start)) continue;
    const std::uint32_t last = run.start + run.chunks - 1;
    const auto run_bytes = static_cast<std::size_t>(
        cm->ChunkOffset(last) + cm->ChunkLogicalBytes(last) -
        cm->ChunkOffset(run.start));
    // A failed or short read is left to the reader's ladder, which counts
    // it and drops what must go; without budget room, the rest of the
    // file is read by its reader.
    auto kept = DepositRun(task.file, level, run.start, run_bytes, run.crcs,
                           ahead);
    if (!kept.ok() || !kept.value()) break;
    ++deposited;
    bytes += run_bytes;
  }
  if (ahead && deposited > 0) {
    prefetch_completed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (span.active()) {
    span.set_args_json("\"file\":" + obs::JsonQuote(file.name) +
                       ",\"tier\":" +
                       obs::JsonQuote(hierarchy_.Level(level).name()) +
                       ",\"runs\":" + std::to_string(deposited) +
                       ",\"bytes\":" + std::to_string(bytes) +
                       ",\"ahead\":" + (ahead ? "true" : "false"));
  }
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
  s.readahead_unread = readahead_unread_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(budget_->mu);
    s.donation_held_bytes = budget_->donations;
    s.deposit_held_bytes = budget_->deposits;
  }
  s.chunks_staged = chunks_staged_.load(std::memory_order_relaxed);
  s.chunk_stored_bytes = chunk_stored_bytes_.load(std::memory_order_relaxed);
  s.chunks_evicted = chunks_evicted_.load(std::memory_order_relaxed);
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

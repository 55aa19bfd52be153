#include "ckpt/checkpoint_manager.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "obs/event_tracer.h"
#include "obs/json.h"
#include "util/clock.h"
#include "util/crc32c.h"

namespace monarch::ckpt {

namespace {

/// Cap on the drain lane's park-and-retry backoff. Durability is
/// mandatory, so a failing drain retries until shutdown; the cap keeps
/// the lane responsive once an outage heals.
constexpr auto kMaxDrainBackoff = std::chrono::milliseconds(16);

}  // namespace

const char* CkptStateName(CkptState state) noexcept {
  switch (state) {
    case CkptState::kLocal: return "local";
    case CkptState::kDraining: return "draining";
    case CkptState::kDurable: return "durable";
  }
  return "unknown";
}

CheckpointManager::CheckpointManager(core::StorageHierarchy& hierarchy,
                                     CheckpointOptions options,
                                     core::PlacementPolicyPtr policy)
    : hierarchy_(hierarchy),
      options_(std::move(options)),
      policy_(policy != nullptr ? std::move(policy)
                                : core::MakeFirstFitPolicy()),
      pool_(options_.buffer_bytes, options_.chunk_bytes) {
  // Drains need a *writable* retry/breaker envelope around the PFS
  // engine; the hierarchy's own PFS driver is read-only by construction.
  // The aliasing shared_ptr is non-owning: the hierarchy outlives us.
  storage::StorageEnginePtr pfs_engine(storage::StorageEnginePtr{},
                                       &hierarchy_.Pfs().engine());
  pfs_writer_ = std::make_unique<core::StorageDriver>(
      hierarchy_.Pfs().name() + "-ckpt-drain", std::move(pfs_engine),
      /*quota_bytes=*/0, /*read_only=*/false, options_.retry,
      options_.health);
  journal_ =
      std::make_unique<ManifestJournal>(hierarchy_.Level(0),
                                        options_.dir + "/MANIFEST");
  if (options_.qos_broker != nullptr) {
    // Attribute every drained byte to the drain tenant: the broker's
    // weighted shares are what keep a checkpoint flood from starving the
    // demand classes of the shared PFS (ISSUE 10).
    options_.qos_broker->RegisterTenant(options_.tenant);
    pfs_writer_->SetQosBroker(options_.qos_broker, options_.tenant);
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  saves_ = registry.GetCounter("ckpt.saves", "ops",
                               "checkpoints committed by Save");
  save_bytes_ = registry.GetCounter("ckpt.save_bytes", "bytes",
                                    "checkpoint payload bytes committed");
  save_stall_us_ = registry.GetHistogram(
      "ckpt.save_stall_us", "us",
      "trainer-visible Save latency (the checkpoint stall)");
  restores_ = registry.GetCounter("ckpt.restores", "ops",
                                  "checkpoint restore requests served");
  drains_ = registry.GetCounter("ckpt.drains", "ops",
                                "checkpoints made durable by the drain lane");
  drain_bytes_counter_ = registry.GetCounter(
      "ckpt.drain_bytes", "bytes", "bytes drained to the PFS and verified");
  drain_retries_ = registry.GetCounter(
      "ckpt.drain_retries", "ops",
      "drain attempts parked by PFS errors or an open circuit breaker");
  local_evictions_ = registry.GetCounter(
      "ckpt.local_evictions", "ops",
      "durable local checkpoint copies evicted under capacity pressure");
  pruned_counter_ = registry.GetCounter(
      "ckpt.pruned", "ops", "checkpoints retired by keep-last-K retention");
  direct_pfs_writes_ = registry.GetCounter(
      "ckpt.direct_pfs_writes", "ops",
      "Saves written synchronously to the PFS (no tier had room)");
  resumed_drains_ = registry.GetCounter(
      "ckpt.resumed_drains", "ops",
      "interrupted drains re-queued by manifest recovery");
  pending_drains_gauge_ = registry.GetGauge(
      "ckpt.pending_drains", "tasks",
      "committed checkpoints not yet durable on the PFS");

  Recover();

  const int workers = std::max(1, options_.drain_threads);
  drain_workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    drain_workers_.emplace_back([this] { DrainLoop(); });
  }
}

CheckpointManager::~CheckpointManager() { Shutdown(); }

std::string CheckpointManager::LocalPath(const std::string& name,
                                         std::uint64_t gen) const {
  return options_.dir + "/" + name + ".g" + std::to_string(gen);
}

std::string CheckpointManager::PfsPath(const std::string& name,
                                       std::uint64_t gen) const {
  return options_.dir + "/" + name + ".g" + std::to_string(gen);
}

void CheckpointManager::Recover() {
  auto replay = journal_->Load();
  if (!replay.ok()) return;  // empty/unreadable journal: fresh start

  std::map<std::uint64_t, ManifestRecord> begun;
  for (const ManifestRecord& record : replay->records) {
    next_gen_ = std::max(next_gen_, record.gen + 1);
    switch (record.op) {
      case ManifestOp::kBegin:
        begun.emplace(record.gen, record);
        break;
      case ManifestOp::kLocal: {
        Entry entry;
        entry.gen = record.gen;
        entry.name = record.name;
        entry.bytes = record.bytes;
        entry.crc = record.crc;
        entry.level = record.level;
        entry.state = CkptState::kLocal;
        entry.local_present = true;
        entries_[record.gen] = std::move(entry);
        begun.erase(record.gen);
        break;
      }
      case ManifestOp::kDraining: {
        auto it = entries_.find(record.gen);
        if (it != entries_.end()) it->second.state = CkptState::kDraining;
        break;
      }
      case ManifestOp::kDurable: {
        auto it = entries_.find(record.gen);
        if (it == entries_.end()) {
          // Direct-to-PFS Save: durable without a local commit.
          Entry entry;
          entry.gen = record.gen;
          entry.name = record.name;
          entry.bytes = record.bytes;
          entry.crc = record.crc;
          it = entries_.emplace(record.gen, std::move(entry)).first;
        }
        it->second.state = CkptState::kDurable;
        begun.erase(record.gen);
        break;
      }
      case ManifestOp::kEvict: {
        auto it = entries_.find(record.gen);
        if (it != entries_.end()) it->second.local_present = false;
        break;
      }
      case ManifestOp::kPrune: {
        auto it = entries_.find(record.gen);
        if (it != entries_.end()) it->second.pruned = true;
        begun.erase(record.gen);
        break;
      }
    }
  }
  stats_.torn_tail_bytes = replay->torn_tail_bytes;

  // Uncommitted writes: a `begin` without a commit means the crash hit
  // mid-write. The partial copy was never visible (restore consults only
  // committed entries); delete whatever landed, on any tier it could
  // have landed on.
  for (const auto& [gen, record] : begun) {
    const std::string path = LocalPath(record.name, gen);
    for (int level = 0; level < hierarchy_.pfs_level(); ++level) {
      core::StorageDriver& driver = hierarchy_.Level(level);
      if (driver.read_only()) continue;
      auto exists = driver.engine().Exists(path);
      if (exists.ok() && exists.value()) (void)driver.Delete(path);
    }
    auto exists = pfs_writer_->engine().Exists(PfsPath(record.name, gen));
    if (exists.ok() && exists.value()) {
      (void)pfs_writer_->Delete(PfsPath(record.name, gen));
    }
    ++stats_.dropped_orphans;
    (void)journal_->Append(
        {ManifestOp::kPrune, gen, record.name, record.bytes, 0, -1});
  }

  // Committed entries: re-reserve quota for live local copies and
  // re-queue every drain the crash interrupted (idempotent: the copy
  // restarts from offset zero against the same gen-qualified PFS path).
  for (auto& [gen, entry] : entries_) {
    if (entry.pruned) continue;
    if (entry.local_present) {
      core::StorageDriver& driver = hierarchy_.Level(entry.level);
      auto exists = driver.engine().Exists(LocalPath(entry.name, gen));
      if (!exists.ok() || !exists.value()) {
        entry.local_present = false;
        if (entry.state != CkptState::kDurable) {
          // Both copies gone — nothing left to drain or restore.
          entry.pruned = true;
          ++stats_.dropped_orphans;
          (void)journal_->Append(
              {ManifestOp::kPrune, gen, entry.name, entry.bytes, 0, -1});
          continue;
        }
      }
    }
    if (entry.local_present) {
      if (hierarchy_.Level(entry.level).Reserve(entry.bytes)) {
        entry.quota_held = true;
        stats_.local_bytes += entry.bytes;
      } else if (entry.state == CkptState::kDurable) {
        // Quota shrank under us and the PFS already has the bytes.
        (void)hierarchy_.Level(entry.level)
            .Delete(LocalPath(entry.name, gen));
        entry.local_present = false;
        ++stats_.local_evictions;
        local_evictions_->Increment();
        (void)journal_->Append(
            {ManifestOp::kEvict, gen, entry.name, entry.bytes, 0, -1});
      }
      // else: keep the only copy alive without a reservation; the drain
      // lane still has bytes to push (quota_held stays false).
    }
    if (entry.state != CkptState::kDurable) {
      entry.state = CkptState::kLocal;  // a half-done drain restarts
      drain_queue_.push_back(gen);
      ++pending_drains_;
      ++stats_.resumed_drains;
      resumed_drains_->Increment();
    }
  }
  pending_drains_gauge_->Set(static_cast<std::int64_t>(pending_drains_));

  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant(
        "ckpt.recover", "ckpt",
        "\"entries\":" + std::to_string(entries_.size()) +
            ",\"resumed\":" + std::to_string(stats_.resumed_drains) +
            ",\"orphans\":" + std::to_string(stats_.dropped_orphans) +
            ",\"torn_tail_bytes\":" +
            std::to_string(stats_.torn_tail_bytes));
  }
}

Status CheckpointManager::Save(const std::string& name,
                               std::span<const std::byte> data) {
  if (name.empty() || name.find_first_of(" \t\r\n") != std::string::npos) {
    return InvalidArgumentError("invalid checkpoint name '" + name + "'");
  }
  if (data.empty()) {
    return InvalidArgumentError("empty checkpoint '" + name + "'");
  }
  obs::TraceSpan span("ckpt.save", "ckpt");
  const Stopwatch stall;
  const std::uint32_t crc = Crc32c(data);

  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return FailedPreconditionError("checkpoint manager is shut down");
    }
    gen = next_gen_++;
  }
  if (span.active()) {
    span.set_args_json("\"name\":" + obs::JsonQuote(name) +
                       ",\"gen\":" + std::to_string(gen) +
                       ",\"bytes\":" + std::to_string(data.size()));
  }

  MONARCH_RETURN_IF_ERROR(journal_->Append(
      {ManifestOp::kBegin, gen, name, data.size(), crc, -1}));

  // Fastest tier with room, evicting already-durable local checkpoint
  // copies (oldest first) when the quota is tight. PickLevel reserves.
  std::optional<int> level = policy_->PickLevel(hierarchy_, data.size());
  while (!level.has_value()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!EvictOneLocalLocked()) break;
    }
    level = policy_->PickLevel(hierarchy_, data.size());
  }

  const std::string local_path = LocalPath(name, gen);
  bool landed_local = false;
  if (level.has_value()) {
    core::StorageDriver& driver = hierarchy_.Level(*level);
    Status write = Status::Ok();
    for (std::size_t offset = 0; offset < data.size();
         offset += options_.chunk_bytes) {
      const std::size_t n =
          std::min(options_.chunk_bytes, data.size() - offset);
      write = driver.WriteAt(local_path, offset, data.subspan(offset, n));
      if (!write.ok()) break;
    }
    if (write.ok() && options_.verify_local_writes) {
      auto readback = ChecksumFile(driver, local_path, data.size());
      if (!readback.ok()) {
        write = readback.status();
      } else if (readback.value() != crc) {
        write = DataLossError("checkpoint '" + name +
                              "' failed CRC verification on tier " +
                              driver.name());
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.local_quarantined;
      }
    }
    if (write.ok()) {
      landed_local = true;
    } else {
      (void)driver.Delete(local_path);
      driver.Release(data.size());
    }
  }

  Entry entry;
  entry.gen = gen;
  entry.name = name;
  entry.bytes = data.size();
  entry.crc = crc;

  if (landed_local) {
    entry.level = *level;
    entry.state = CkptState::kLocal;
    entry.local_present = true;
    entry.quota_held = true;
    // The commit point: from here the checkpoint is visible and the
    // drain lane owes the PFS a copy.
    MONARCH_RETURN_IF_ERROR(journal_->Append(
        {ManifestOp::kLocal, gen, name, data.size(), crc, *level}));
  } else {
    // Degradation ladder's last rung: no tier had room (or the write
    // failed) — pay the synchronous PFS write the write-back tier
    // normally hides.
    MONARCH_RETURN_IF_ERROR(WriteDirectToPfs(entry, data));
    entry.state = CkptState::kDurable;
    MONARCH_RETURN_IF_ERROR(journal_->Append(
        {ManifestOp::kDurable, gen, name, data.size(), crc, -1}));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.saves;
    stats_.save_bytes += entry.bytes;
    if (entry.local_present) {
      stats_.local_bytes += entry.bytes;
      entries_[gen] = entry;
      drain_queue_.push_back(gen);
      ++pending_drains_;
      pending_drains_gauge_->Set(static_cast<std::int64_t>(pending_drains_));
    } else {
      ++stats_.direct_pfs_writes;
      direct_pfs_writes_->Increment();
      entries_[gen] = entry;
    }
    ApplyRetentionLocked();
  }
  drain_cv_.notify_one();

  saves_->Increment();
  save_bytes_->Increment(entry.bytes);
  save_stall_us_->RecordMicros(
      static_cast<std::uint64_t>(stall.ElapsedSeconds() * 1e6));
  return Status::Ok();
}

Result<std::vector<std::byte>> CheckpointManager::Restore(
    const std::string& name) {
  Entry snapshot;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.restores;
    // Newest committed generation of `name` wins.
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (!it->second.pruned && it->second.name == name) {
        snapshot = it->second;
        found = true;
        break;
      }
    }
  }
  restores_->Increment();
  if (!found) {
    return NotFoundError("no committed checkpoint named '" + name + "'");
  }

  std::vector<std::byte> data(snapshot.bytes);
  if (snapshot.local_present) {
    core::StorageDriver& driver = hierarchy_.Level(snapshot.level);
    auto read = driver.Read(LocalPath(name, snapshot.gen), 0, data);
    bool ok = read.ok() && read.value() == snapshot.bytes;
    if (ok && options_.verify_on_restore && Crc32c(data) != snapshot.crc) {
      // Corrupt local copy: quarantine it and degrade to the PFS (same
      // ladder shape as the read path's verify_on_read).
      ok = false;
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(snapshot.gen);
      if (it != entries_.end() && it->second.local_present) {
        (void)driver.Delete(LocalPath(name, snapshot.gen));
        if (it->second.quota_held) {
          driver.Release(it->second.bytes);
          stats_.local_bytes -= it->second.bytes;
        }
        it->second.local_present = false;
        it->second.quota_held = false;
        ++stats_.local_quarantined;
        (void)journal_->Append({ManifestOp::kEvict, snapshot.gen, name,
                                snapshot.bytes, 0, -1});
      }
    }
    if (ok) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.restores_local;
      return data;
    }
    if (snapshot.state != CkptState::kDurable) {
      return DataLossError("checkpoint '" + name +
                           "' lost its only (local) copy");
    }
  }

  // Served by the PFS copy (evicted, quarantined, or direct-written).
  auto read = pfs_writer_->Read(PfsPath(name, snapshot.gen), 0, data);
  MONARCH_RETURN_IF_ERROR(read.status());
  if (read.value() != snapshot.bytes ||
      (options_.verify_on_restore && Crc32c(data) != snapshot.crc)) {
    return DataLossError("durable checkpoint '" + name +
                         "' failed CRC verification on the PFS");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.restores_pfs;
  }
  return data;
}

Status CheckpointManager::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  flush_cv_.wait(lock, [this] { return stop_ || pending_drains_ == 0; });
  if (pending_drains_ == 0) return Status::Ok();
  return UnavailableError("checkpoint manager shut down with " +
                          std::to_string(pending_drains_) +
                          " drains pending");
}

void CheckpointManager::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  drain_cv_.notify_all();
  flush_cv_.notify_all();
  for (std::thread& worker : drain_workers_) {
    if (worker.joinable()) worker.join();
  }
}

void CheckpointManager::DrainLoop() {
  // Drain workers carry the drain tenant for their whole lifetime: the
  // local-tier reads in DrainOnce/ChecksumFile and the PFS writes all
  // charge the drain class, never whichever job triggered the Save.
  qos::ScopedTenant scope(options_.tenant);
  while (true) {
    std::uint64_t gen = 0;
    Entry snapshot;
    {
      std::unique_lock<std::mutex> lock(mu_);
      drain_cv_.wait(lock,
                     [this] { return stop_ || !drain_queue_.empty(); });
      if (stop_) return;
      gen = drain_queue_.front();
      drain_queue_.pop_front();
      auto it = entries_.find(gen);
      if (it == entries_.end() || it->second.pruned ||
          it->second.state == CkptState::kDurable ||
          !it->second.local_present) {
        --pending_drains_;
        pending_drains_gauge_->Set(
            static_cast<std::int64_t>(pending_drains_));
        flush_cv_.notify_all();
        continue;
      }
      it->second.state = CkptState::kDraining;
      snapshot = it->second;
    }
    (void)journal_->Append({ManifestOp::kDraining, gen, snapshot.name,
                            snapshot.bytes, snapshot.crc, snapshot.level});

    // Durability is mandatory: park with capped backoff across PFS
    // outages (the driver's bounded retries + circuit breaker decide
    // when an attempt has failed) and start the copy over — the
    // gen-qualified PFS path makes restarts idempotent.
    auto backoff = std::chrono::milliseconds(1);
    while (!DrainOnce(snapshot)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;  // pending drains stay journalled
        ++stats_.drain_retries;
      }
      drain_retries_->Increment();
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, kMaxDrainBackoff);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;
      }
    }

    // Journal `durable` before publishing the state so a crash between
    // the two re-drains at worst (idempotent), never forgets durability.
    (void)journal_->Append({ManifestOp::kDurable, gen, snapshot.name,
                            snapshot.bytes, snapshot.crc, snapshot.level});
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(gen);
      if (it != entries_.end()) it->second.state = CkptState::kDurable;
      --pending_drains_;
      pending_drains_gauge_->Set(static_cast<std::int64_t>(pending_drains_));
      ++stats_.drains_completed;
      stats_.drain_bytes += snapshot.bytes;
      ApplyRetentionLocked();
    }
    drains_->Increment();
    drain_bytes_counter_->Increment(snapshot.bytes);
    flush_cv_.notify_all();
  }
}

bool CheckpointManager::DrainOnce(const Entry& snapshot) {
  // Respect the breaker before burning a retry budget against a tier the
  // resilience layer already routed around.
  if (!pfs_writer_->health().AllowRequest()) return false;

  obs::TraceSpan span("ckpt.drain", "ckpt");
  if (span.active()) {
    span.set_args_json("\"name\":" + obs::JsonQuote(snapshot.name) +
                       ",\"gen\":" + std::to_string(snapshot.gen) +
                       ",\"bytes\":" + std::to_string(snapshot.bytes));
  }

  core::StorageDriver& local = hierarchy_.Level(snapshot.level);
  const std::string local_path = LocalPath(snapshot.name, snapshot.gen);
  const std::string pfs_path = PfsPath(snapshot.name, snapshot.gen);

  std::uint32_t crc = 0;
  for (std::uint64_t offset = 0; offset < snapshot.bytes;
       offset += options_.chunk_bytes) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(options_.chunk_bytes,
                                snapshot.bytes - offset));
    BufferPool::Lease lease = pool_.Acquire();
    std::span<std::byte> chunk(lease.bytes().data(), n);
    auto read = local.Read(local_path, offset, chunk);
    if (!read.ok() || read.value() != n) return false;
    crc = Crc32c(chunk, crc);
    if (!pfs_writer_->WriteAt(pfs_path, offset, chunk).ok()) return false;
  }
  if (crc != snapshot.crc) return false;  // local copy did not checksum

  if (options_.verify_drained_writes) {
    auto size = pfs_writer_->engine().FileSize(pfs_path);
    if (!size.ok() || size.value() != snapshot.bytes) return false;
    auto readback = ChecksumFile(*pfs_writer_, pfs_path, snapshot.bytes);
    if (!readback.ok() || readback.value() != snapshot.crc) return false;
  }
  return true;
}

bool CheckpointManager::EvictOneLocalLocked() {
  for (auto& [gen, entry] : entries_) {
    if (entry.pruned || !entry.local_present ||
        entry.state != CkptState::kDurable) {
      continue;
    }
    core::StorageDriver& driver = hierarchy_.Level(entry.level);
    (void)driver.Delete(LocalPath(entry.name, gen));
    if (entry.quota_held) {
      driver.Release(entry.bytes);
      stats_.local_bytes -= entry.bytes;
    }
    entry.local_present = false;
    entry.quota_held = false;
    ++stats_.local_evictions;
    local_evictions_->Increment();
    (void)journal_->Append(
        {ManifestOp::kEvict, gen, entry.name, entry.bytes, 0, -1});
    obs::EventTracer& tracer = obs::EventTracer::Global();
    if (tracer.enabled()) {
      tracer.RecordInstant("ckpt.evict", "ckpt",
                           "\"name\":" + obs::JsonQuote(entry.name) +
                               ",\"gen\":" + std::to_string(gen) +
                               ",\"bytes\":" + std::to_string(entry.bytes));
    }
    return true;
  }
  return false;
}

void CheckpointManager::ApplyRetentionLocked() {
  if (options_.keep_last <= 0) return;
  std::size_t live = 0;
  for (const auto& [gen, entry] : entries_) {
    if (!entry.pruned) ++live;
  }
  if (live <= static_cast<std::size_t>(options_.keep_last)) return;
  std::size_t excess = live - static_cast<std::size_t>(options_.keep_last);

  // Oldest first; a checkpoint still draining is skipped and retired the
  // next time retention runs (after its drain completes).
  for (auto& [gen, entry] : entries_) {
    if (excess == 0) break;
    if (entry.pruned) continue;
    if (entry.state != CkptState::kDurable) {
      --excess;  // counts against the window but cannot be pruned yet
      continue;
    }
    if (entry.local_present) {
      core::StorageDriver& driver = hierarchy_.Level(entry.level);
      (void)driver.Delete(LocalPath(entry.name, gen));
      if (entry.quota_held) {
        driver.Release(entry.bytes);
        stats_.local_bytes -= entry.bytes;
      }
      entry.local_present = false;
      entry.quota_held = false;
    }
    (void)pfs_writer_->Delete(PfsPath(entry.name, gen));
    entry.pruned = true;
    ++stats_.pruned;
    pruned_counter_->Increment();
    (void)journal_->Append(
        {ManifestOp::kPrune, gen, entry.name, entry.bytes, 0, -1});
    obs::EventTracer& tracer = obs::EventTracer::Global();
    if (tracer.enabled()) {
      tracer.RecordInstant("ckpt.prune", "ckpt",
                           "\"name\":" + obs::JsonQuote(entry.name) +
                               ",\"gen\":" + std::to_string(gen));
    }
    --excess;
  }
}

Result<std::uint32_t> CheckpointManager::ChecksumFile(
    core::StorageDriver& driver, const std::string& path,
    std::uint64_t bytes) {
  std::uint32_t crc = 0;
  for (std::uint64_t offset = 0; offset < bytes;
       offset += options_.chunk_bytes) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(options_.chunk_bytes, bytes - offset));
    BufferPool::Lease lease = pool_.Acquire();
    std::span<std::byte> chunk(lease.bytes().data(), n);
    MONARCH_ASSIGN_OR_RETURN(const std::size_t read,
                             driver.Read(path, offset, chunk));
    if (read != n) {
      return InternalError("short read at offset " + std::to_string(offset) +
                           " of '" + path + "'");
    }
    crc = Crc32c(chunk, crc);
  }
  return crc;
}

Status CheckpointManager::WriteDirectToPfs(const Entry& entry,
                                           std::span<const std::byte> data) {
  const std::string path = PfsPath(entry.name, entry.gen);
  for (std::size_t offset = 0; offset < data.size();
       offset += options_.chunk_bytes) {
    const std::size_t n = std::min(options_.chunk_bytes, data.size() - offset);
    MONARCH_RETURN_IF_ERROR(
        pfs_writer_->WriteAt(path, offset, data.subspan(offset, n)));
  }
  // Always prove the synchronous copy before reporting success — this is
  // the arm with no second copy to fall back on.
  MONARCH_ASSIGN_OR_RETURN(
      const std::uint32_t crc,
      ChecksumFile(*pfs_writer_, path, data.size()));
  if (crc != entry.crc) {
    (void)pfs_writer_->Delete(path);
    return DataLossError("direct PFS write of '" + entry.name +
                         "' failed CRC verification");
  }
  return Status::Ok();
}

CheckpointManager::Stats CheckpointManager::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.pending_drains = pending_drains_;
  return stats;
}

std::vector<CheckpointManager::EntryView> CheckpointManager::ManifestView()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EntryView> views;
  views.reserve(entries_.size());
  for (const auto& [gen, entry] : entries_) {
    if (entry.pruned) continue;
    EntryView view;
    view.gen = gen;
    view.name = entry.name;
    view.bytes = entry.bytes;
    view.crc = entry.crc;
    view.level = entry.local_present ? entry.level : -1;
    view.state = entry.state;
    view.local_present = entry.local_present;
    views.push_back(std::move(view));
  }
  return views;
}

}  // namespace monarch::ckpt

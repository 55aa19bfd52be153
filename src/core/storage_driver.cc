#include "core/storage_driver.h"

#include <functional>

namespace monarch::core {

StorageDriver::StorageDriver(std::string name,
                             storage::StorageEnginePtr engine,
                             std::uint64_t quota_bytes, bool read_only,
                             RetryPolicy retry, TierHealthOptions health)
    : name_(std::move(name)),
      engine_(std::move(engine)),
      quota_(quota_bytes),
      read_only_(read_only),
      retry_(retry),
      health_(name_, health) {
  retries_ = obs::MetricsRegistry::Global().GetCounter(
      "storage.retries", "ops",
      "engine operations retried after a transient (UNAVAILABLE) failure");
}

bool StorageDriver::Reserve(std::uint64_t bytes) noexcept {
  if (read_only_) return false;
  if (quota_ == 0) {  // unlimited
    occupancy_.fetch_add(bytes, std::memory_order_relaxed);
    return true;
  }
  std::uint64_t current = occupancy_.load(std::memory_order_relaxed);
  for (;;) {
    if (current + bytes > quota_) return false;
    if (occupancy_.compare_exchange_weak(current, current + bytes,
                                         std::memory_order_acq_rel)) {
      return true;
    }
  }
}

void StorageDriver::Release(std::uint64_t bytes) noexcept {
  occupancy_.fetch_sub(bytes, std::memory_order_relaxed);
}

std::uint64_t StorageDriver::free_bytes() const noexcept {
  if (quota_ == 0) return UINT64_MAX;
  const std::uint64_t used = occupancy_.load(std::memory_order_relaxed);
  return used >= quota_ ? 0 : quota_ - used;
}

void StorageDriver::CountRetry() noexcept {
  retries_local_.fetch_add(1, std::memory_order_relaxed);
  if (retries_ != nullptr) retries_->Increment();
}

Result<std::size_t> StorageDriver::Read(std::string_view path,
                                        std::uint64_t offset,
                                        std::span<std::byte> dst) {
  // Charge the tenant before the engine op: the token-bucket wait IS
  // the bandwidth enforcement (charged once, not per retry attempt).
  ChargeQos(dst.size());
  // Salt the jitter stream per (tier, file) so concurrent retries across
  // files don't sleep in lockstep, while staying deterministic per run.
  // Hashes are combined instead of concatenated — no per-read allocation.
  Backoff backoff(retry_, std::hash<std::string>{}(name_) ^
                              std::hash<std::string_view>{}(path));
  for (;;) {
    auto read = engine_->Read(path, offset, dst);
    if (read.ok()) {
      health_.RecordSuccess();
      return read;
    }
    if (!IsRetryableError(read.status())) {
      // kNotFound etc. are misses, not tier failures — don't poison the
      // health window with them.
      return read;
    }
    health_.RecordFailure();
    const auto delay = backoff.NextDelay();
    if (!delay.has_value()) return read;
    CountRetry();
    PreciseSleep(*delay);
  }
}

Result<storage::ReadView> StorageDriver::ReadZeroCopy(std::string_view path,
                                                      std::uint64_t offset,
                                                      std::uint64_t max_bytes) {
  ChargeQos(max_bytes);
  Backoff backoff(retry_, std::hash<std::string>{}(name_) ^
                              std::hash<std::string_view>{}(path));
  for (;;) {
    auto view = engine_->ReadZeroCopy(path, offset, max_bytes);
    if (view.ok()) {
      health_.RecordSuccess();
      return view;
    }
    if (!IsRetryableError(view.status())) return view;
    health_.RecordFailure();
    const auto delay = backoff.NextDelay();
    if (!delay.has_value()) return view;
    CountRetry();
    PreciseSleep(*delay);
  }
}

Status StorageDriver::Write(const std::string& path,
                            std::span<const std::byte> data) {
  if (read_only_) {
    return FailedPreconditionError("write to read-only tier '" + name_ + "'");
  }
  ChargeQos(data.size());
  Backoff backoff(retry_, std::hash<std::string>{}(name_ + path) ^ 0x57u);
  for (;;) {
    const Status written = engine_->Write(path, data);
    if (written.ok()) {
      health_.RecordSuccess();
      return written;
    }
    if (!IsRetryableError(written)) return written;
    health_.RecordFailure();
    const auto delay = backoff.NextDelay();
    if (!delay.has_value()) return written;
    CountRetry();
    PreciseSleep(*delay);
  }
}

Status StorageDriver::WriteAt(const std::string& path, std::uint64_t offset,
                              std::span<const std::byte> data) {
  if (read_only_) {
    return FailedPreconditionError("write to read-only tier '" + name_ + "'");
  }
  ChargeQos(data.size());
  // Retrying a chunk is safe: WriteAt is an idempotent overwrite of the
  // same byte range.
  Backoff backoff(retry_, std::hash<std::string>{}(name_ + path) ^ offset);
  for (;;) {
    const Status written = engine_->WriteAt(path, offset, data);
    if (written.ok()) {
      health_.RecordSuccess();
      return written;
    }
    if (!IsRetryableError(written)) return written;
    health_.RecordFailure();
    const auto delay = backoff.NextDelay();
    if (!delay.has_value()) return written;
    CountRetry();
    PreciseSleep(*delay);
  }
}

Status StorageDriver::Delete(const std::string& path) {
  if (read_only_) {
    return FailedPreconditionError("delete on read-only tier '" + name_ +
                                   "'");
  }
  return engine_->Delete(path);
}

}  // namespace monarch::core

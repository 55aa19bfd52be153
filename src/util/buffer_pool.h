// BufferPool: a bounded pool of reusable, chunk-sized byte buffers.
//
// The staging pipeline streams files tier-to-tier in fixed-size chunks;
// this pool is what makes its peak memory a configuration constant
// (`[placement] staging_buffer_bytes`) instead of a function of file
// sizes. Acquire() blocks when every buffer is leased, so a burst of
// concurrent copies degrades to queueing — never to an allocation spike.
//
// Buffers are created lazily (first Acquire that finds the free list
// empty) and retained for reuse, so a steady-state pipeline performs no
// allocation at all. They are allocated for overwrite, never zero-filled:
// every lease is written before it is read, and a run shorter than a
// buffer leaves the rest of its pages untouched.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace monarch {

class BufferPool {
 public:
  /// `capacity_bytes` is the total budget; the pool holds
  /// max(1, capacity_bytes / chunk_bytes) buffers of `chunk_bytes` each.
  BufferPool(std::size_t capacity_bytes, std::size_t chunk_bytes)
      : chunk_bytes_(std::max<std::size_t>(std::size_t{1}, chunk_bytes)),
        max_buffers_(std::max<std::size_t>(std::size_t{1},
                                           capacity_bytes / chunk_bytes_)) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  using Buffer = std::unique_ptr<std::byte[]>;

  /// RAII lease of one buffer; returns it to the pool on destruction.
  class Lease {
   public:
    Lease(BufferPool* pool, Buffer buffer)
        : pool_(pool), buffer_(std::move(buffer)) {}
    ~Lease() {
      if (pool_ != nullptr) pool_->Return(std::move(buffer_));
    }
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          buffer_(std::move(other.buffer_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    /// The buffer's chunk_bytes() bytes, uninitialised until written.
    [[nodiscard]] std::span<std::byte> bytes() noexcept {
      return {buffer_.get(), pool_ != nullptr ? pool_->chunk_bytes_ : 0};
    }

   private:
    BufferPool* pool_;
    Buffer buffer_;
  };

  /// Take a buffer, blocking until one is free when the whole budget is
  /// leased out.
  Lease Acquire() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return AvailableLocked() > 0; });
    return TakeLocked();
  }

  /// Take a buffer without blocking, and only while `keep_free` more
  /// would stay available after it; nullopt otherwise. A holder that
  /// keeps leases for a long time takes them with `keep_free` = 1, so a
  /// lane that Acquire()s one buffer at a time can always proceed.
  std::optional<Lease> TryAcquire(std::size_t keep_free) {
    std::lock_guard lock(mu_);
    if (AvailableLocked() <= keep_free) return std::nullopt;
    return TakeLocked();
  }

  [[nodiscard]] std::size_t chunk_bytes() const noexcept {
    return chunk_bytes_;
  }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return max_buffers_ * chunk_bytes_;
  }
  [[nodiscard]] std::size_t in_use_bytes() const {
    std::lock_guard lock(mu_);
    return outstanding_ * chunk_bytes_;
  }
  /// High-water mark of leased bytes — what the bounded-memory test
  /// asserts against capacity_bytes().
  [[nodiscard]] std::size_t peak_in_use_bytes() const {
    std::lock_guard lock(mu_);
    return peak_outstanding_ * chunk_bytes_;
  }

 private:
  std::size_t AvailableLocked() const {
    return free_.size() + (max_buffers_ - created_);
  }

  Lease TakeLocked() {
    Buffer buffer;
    if (!free_.empty()) {
      buffer = std::move(free_.back());
      free_.pop_back();
    } else {
      ++created_;
      buffer = std::make_unique_for_overwrite<std::byte[]>(chunk_bytes_);
    }
    ++outstanding_;
    peak_outstanding_ = std::max(peak_outstanding_, outstanding_);
    return Lease(this, std::move(buffer));
  }

  void Return(Buffer buffer) {
    {
      std::lock_guard lock(mu_);
      free_.push_back(std::move(buffer));
      --outstanding_;
    }
    cv_.notify_one();
  }

  const std::size_t chunk_bytes_;
  const std::size_t max_buffers_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Buffer> free_;
  std::size_t created_ = 0;
  std::size_t outstanding_ = 0;
  std::size_t peak_outstanding_ = 0;
};

}  // namespace monarch

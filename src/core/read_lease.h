// ReadLease: one file visit's pin (Monarch::PinVisit).
//
// While the lease is alive, FileInfo::read_pins stays elevated, so
// eviction's read-pin machinery (PlacementHandler::EvictOne) never
// reclaims the staged copy out from under the visit, and
// FileInfo::readers_coming counts the visit as a reader still coming for
// the file's bytes (a copy published meanwhile keeps a deposit for it).
// Releasing (or destroying) the lease drops both counts; moving it moves
// them.
#pragma once

#include <atomic>
#include <utility>

#include "core/file_info.h"

namespace monarch::core {

class ReadLease {
 public:
  ReadLease() = default;

  /// Takes ownership of one already-acquired read pin and one
  /// readers_coming count on `info`.
  explicit ReadLease(FileInfoPtr info) noexcept : info_(std::move(info)) {}

  ReadLease(const ReadLease&) = delete;
  ReadLease& operator=(const ReadLease&) = delete;

  ReadLease(ReadLease&& other) noexcept : info_(std::move(other.info_)) {}

  ReadLease& operator=(ReadLease&& other) noexcept {
    if (this != &other) {
      Release();
      info_ = std::move(other.info_);
    }
    return *this;
  }

  ~ReadLease() { Release(); }

  /// Unpin early: the file's copy may be evicted again.
  void Release() noexcept {
    if (info_) {
      info_->readers_coming.fetch_sub(1, std::memory_order_acq_rel);
      info_->read_pins.fetch_sub(1, std::memory_order_acq_rel);
      info_.reset();
    }
  }

  /// True while the lease still holds a file pin.
  [[nodiscard]] bool pinned() const noexcept { return info_ != nullptr; }

 private:
  FileInfoPtr info_;
};

}  // namespace monarch::core

// StorageEngine: the raw backend abstraction every tier driver sits on.
//
// Engines are directory-like object stores addressed by relative path.
// Real bytes always flow (so correctness is end-to-end testable); the
// *performance* of an engine is what varies — PosixEngine talks straight
// to the host file system, ThrottledEngine overlays a device model that
// reproduces SSD- or Lustre-class behaviour, MemoryEngine keeps data in
// RAM (the §VI "more storage layers" tier).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/io_stats.h"
#include "util/status.h"

namespace monarch::storage {

struct FileStat {
  std::string path;          ///< engine-relative path
  std::uint64_t size = 0;
};

/// An immutable span of file bytes LENT by an engine (ReadZeroCopy).
/// `keepalive` pins whatever owns the bytes — for MemoryEngine the
/// file's current buffer — so the view stays valid even if the file is
/// deleted, overwritten, or the engine torn down while the view is held.
/// Engines that cannot lend (POSIX, modelled-latency decorators) return a
/// view over a private copy instead; `zero_copy()` tells the caller which
/// one it got.
class ReadView {
 public:
  ReadView() = default;
  ReadView(std::span<const std::byte> data,
           std::shared_ptr<const void> keepalive, bool zero_copy) noexcept
      : data_(data), keepalive_(std::move(keepalive)), zero_copy_(zero_copy) {}

  [[nodiscard]] std::span<const std::byte> data() const noexcept {
    return data_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  /// True when the bytes are the engine's own page, not a copy.
  [[nodiscard]] bool zero_copy() const noexcept { return zero_copy_; }

  /// The `n` bytes at `offset` of this view, pinning the same owner.
  [[nodiscard]] ReadView Slice(std::size_t offset, std::size_t n) const {
    return ReadView(data_.subspan(offset, n), keepalive_, zero_copy_);
  }

  /// Drop the view (and its pin on the underlying bytes) early.
  void Reset() noexcept {
    data_ = {};
    keepalive_.reset();
    zero_copy_ = false;
  }

 private:
  std::span<const std::byte> data_{};
  std::shared_ptr<const void> keepalive_;
  bool zero_copy_ = false;
};

class StorageEngine {
 public:
  virtual ~StorageEngine() = default;

  /// Read up to `dst.size()` bytes at `offset` from `path` into `dst`.
  /// Returns the byte count actually read (0 at EOF). Reading at an
  /// offset past EOF yields 0, not an error, matching POSIX pread.
  /// Takes string_view: the hot read path must not force a key copy per
  /// call (the async ring submits millions of these per epoch).
  virtual Result<std::size_t> Read(std::string_view path,
                                   std::uint64_t offset,
                                   std::span<std::byte> dst) = 0;

  /// Zero-copy read: lend up to `max_bytes` of `path` starting at
  /// `offset` as an immutable ReadView. Memory-backed engines override
  /// this to lend their own page (no memcpy); this default falls back to
  /// a copying read so every engine supports the API. A view read past
  /// EOF is empty, not an error, matching Read.
  virtual Result<ReadView> ReadZeroCopy(std::string_view path,
                                        std::uint64_t offset,
                                        std::uint64_t max_bytes) {
    auto size = FileSize(std::string(path));
    if (!size.ok()) return size.status();
    const std::uint64_t n =
        offset >= size.value()
            ? 0
            : std::min<std::uint64_t>(max_bytes, size.value() - offset);
    auto buffer = std::make_shared<std::vector<std::byte>>(
        static_cast<std::size_t>(n));
    auto read = Read(path, offset, *buffer);
    if (!read.ok()) return read.status();
    buffer->resize(read.value());
    std::span<const std::byte> data(*buffer);
    return ReadView(data, std::move(buffer), /*zero_copy=*/false);
  }

  /// Create/overwrite `path` with `data` (single atomic-ish put).
  virtual Status Write(const std::string& path,
                       std::span<const std::byte> data) = 0;

  /// Write `data` into `path` at byte `offset`, creating the file (and
  /// zero-filling any gap) as needed. The staging pipeline streams a file
  /// as a sequence of chunk-sized WriteAt calls so peak memory stays
  /// bounded by the buffer pool, not the file size. The generic fallback
  /// below is read-splice-write; engines with a cheap native partial
  /// write override it.
  virtual Status WriteAt(const std::string& path, std::uint64_t offset,
                         std::span<const std::byte> data) {
    std::vector<std::byte> whole;
    auto size = FileSize(path);
    if (size.ok()) {
      whole.resize(size.value());
      auto read = Read(path, 0, whole);
      if (!read.ok()) return read.status();
      whole.resize(read.value());
    }
    if (whole.size() < offset + data.size()) {
      whole.resize(offset + data.size());
    }
    std::copy(data.begin(), data.end(),
              whole.begin() + static_cast<std::ptrdiff_t>(offset));
    return Write(path, whole);
  }

  /// Remove `path`. NotFound if absent.
  virtual Status Delete(const std::string& path) = 0;

  /// stat(): size of `path`. Counted as a metadata op.
  virtual Result<std::uint64_t> FileSize(const std::string& path) = 0;

  virtual Result<bool> Exists(const std::string& path) = 0;

  /// Recursively enumerate files (relative paths + sizes), sorted by path.
  /// Counted as metadata ops (one per directory visited plus one per entry,
  /// approximating the PFS metadata-server traffic of a namespace walk).
  virtual Result<std::vector<FileStat>> ListFiles(const std::string& dir) = 0;

  /// Instrumentation shared by all wrappers of the same physical device.
  virtual IoStats& Stats() = 0;

  /// Human-readable engine identity for logs and reports.
  [[nodiscard]] virtual std::string Name() const = 0;
};

using StorageEnginePtr = std::shared_ptr<StorageEngine>;

}  // namespace monarch::storage

// MonarchSource: tfrecord::RandomAccessSource adapter over a Monarch
// instance. This is the repo's equivalent of the paper's TensorFlow
// driver patch — a reader built on this source issues the same record-
// oriented I/O as one built on a plain engine, except every pread becomes
// a Monarch.read(filename, ...) call. A source is one file visit: it pins
// the file from construction to destruction, so eviction never drops a
// copy the visit is still reading (Monarch::PinVisit).
#pragma once

#include <string>
#include <utility>

#include "core/monarch.h"
#include "tfrecord/random_access_source.h"

namespace monarch::core {

class MonarchSource final : public tfrecord::RandomAccessSource {
 public:
  MonarchSource(Monarch& monarch, std::string path)
      : monarch_(monarch),
        path_(std::move(path)),
        visit_(monarch_.PinVisit(path_)) {}

  Result<std::size_t> ReadAt(std::uint64_t offset,
                             std::span<std::byte> dst) override {
    return monarch_.Read(path_, offset, dst);
  }

  Result<std::uint64_t> Size() override { return monarch_.FileSize(path_); }

  [[nodiscard]] std::string Name() const override { return path_; }

 private:
  Monarch& monarch_;
  std::string path_;
  ReadLease visit_;
};

}  // namespace monarch::core

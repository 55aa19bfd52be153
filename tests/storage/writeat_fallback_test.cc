// StorageEngine::WriteAt generic fallback (satellite of ISSUE 5): an
// engine with no native partial write gets read-splice-write from the
// base class. The checkpoint drain and the staging pipeline both stream
// files as chunked WriteAt calls, so the fallback must assemble exact
// bytes — in order, out of order, with zero-filled gaps, and with many
// writers streaming *different* files concurrently.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "../test_support.h"
#include "storage/memory_engine.h"
#include "util/crc32c.h"

namespace monarch::storage {
namespace {

/// Pass-through wrapper that deliberately does NOT override WriteAt, so
/// every partial write goes through the base class's read-splice-write.
class FallbackOnlyEngine final : public StorageEngine {
 public:
  explicit FallbackOnlyEngine(StorageEnginePtr inner)
      : inner_(std::move(inner)) {}

  Result<std::size_t> Read(std::string_view path, std::uint64_t offset,
                           std::span<std::byte> dst) override {
    return inner_->Read(path, offset, dst);
  }
  Status Write(const std::string& path,
               std::span<const std::byte> data) override {
    return inner_->Write(path, data);
  }
  Status Delete(const std::string& path) override {
    return inner_->Delete(path);
  }
  Result<std::uint64_t> FileSize(const std::string& path) override {
    return inner_->FileSize(path);
  }
  Result<bool> Exists(const std::string& path) override {
    return inner_->Exists(path);
  }
  Result<std::vector<FileStat>> ListFiles(const std::string& dir) override {
    return inner_->ListFiles(dir);
  }
  IoStats& Stats() override { return inner_->Stats(); }
  [[nodiscard]] std::string Name() const override {
    return inner_->Name() + "+fallback";
  }

 private:
  StorageEnginePtr inner_;
};

std::vector<std::byte> Pattern(std::size_t bytes, std::uint64_t seed) {
  std::vector<std::byte> data(bytes);
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
  for (std::byte& b : data) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::byte>(state >> 56);
  }
  return data;
}

TEST(WriteAtFallbackTest, ChunkedSequentialWriteAssemblesFile) {
  FallbackOnlyEngine engine(std::make_shared<MemoryEngine>("mem"));
  const auto data = Pattern(10'000, 1);
  constexpr std::size_t kChunk = 1024;
  for (std::size_t offset = 0; offset < data.size(); offset += kChunk) {
    const std::size_t n = std::min(kChunk, data.size() - offset);
    ASSERT_OK(engine.WriteAt("f", offset,
                             std::span<const std::byte>(data).subspan(
                                 offset, n)));
  }
  std::vector<std::byte> out(data.size());
  auto read = engine.Read("f", 0, out);
  ASSERT_OK(read);
  EXPECT_EQ(data.size(), read.value());
  EXPECT_EQ(data, out);
}

TEST(WriteAtFallbackTest, OutOfOrderChunksAndGapZeroFill) {
  FallbackOnlyEngine engine(std::make_shared<MemoryEngine>("mem"));
  const auto tail = Pattern(100, 2);
  const auto head = Pattern(100, 3);
  // Tail first: the file must grow and zero-fill the [0, 400) gap.
  ASSERT_OK(engine.WriteAt("f", 400, tail));
  ASSERT_OK(engine.WriteAt("f", 0, head));
  auto size = engine.FileSize("f");
  ASSERT_OK(size);
  EXPECT_EQ(500u, size.value());

  std::vector<std::byte> out(500);
  ASSERT_OK(engine.Read("f", 0, out));
  EXPECT_TRUE(std::equal(head.begin(), head.end(), out.begin()));
  for (std::size_t i = 100; i < 400; ++i) {
    EXPECT_EQ(std::byte{0}, out[i]) << "gap byte " << i;
  }
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), out.begin() + 400));
}

TEST(WriteAtFallbackTest, OverwriteSpliceKeepsSurroundingBytes) {
  FallbackOnlyEngine engine(std::make_shared<MemoryEngine>("mem"));
  const auto base = Pattern(1000, 4);
  ASSERT_OK(engine.Write("f", base));
  const auto patch = Pattern(64, 5);
  ASSERT_OK(engine.WriteAt("f", 500, patch));

  std::vector<std::byte> expect(base.begin(), base.begin() + 500);
  expect.insert(expect.end(), patch.begin(), patch.end());
  expect.insert(expect.end(), base.begin() + 564, base.end());
  std::vector<std::byte> out(expect.size());
  ASSERT_OK(engine.Read("f", 0, out));
  EXPECT_EQ(expect, out);
}

TEST(WriteAtFallbackTest, ConcurrentWritersOnDistinctFiles) {
  // The staging pipeline and checkpoint drain run several chunked
  // streams at once, each to its own path. The fallback must keep them
  // independent: every finished file checksums exactly, no matter how
  // the writers interleave.
  FallbackOnlyEngine engine(std::make_shared<MemoryEngine>("mem"));
  constexpr int kWriters = 8;
  constexpr std::size_t kBytes = 64 * 1024;
  constexpr std::size_t kChunk = 4 * 1024;

  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    payloads.push_back(Pattern(kBytes, 100 + static_cast<std::uint64_t>(w)));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::string path = "f" + std::to_string(w);
      const auto& data = payloads[static_cast<std::size_t>(w)];
      for (std::size_t offset = 0; offset < data.size(); offset += kChunk) {
        const auto chunk =
            std::span<const std::byte>(data).subspan(offset, kChunk);
        if (!engine.WriteAt(path, offset, chunk).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(0, failures.load());

  for (int w = 0; w < kWriters; ++w) {
    std::vector<std::byte> out(kBytes);
    auto read = engine.Read("f" + std::to_string(w), 0, out);
    ASSERT_OK(read);
    ASSERT_EQ(kBytes, read.value());
    EXPECT_EQ(Crc32c(payloads[static_cast<std::size_t>(w)]), Crc32c(out))
        << "writer " << w;
  }
}

}  // namespace
}  // namespace monarch::storage

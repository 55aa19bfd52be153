// ReadRing / ReadLease tests (ISSUE 8): batch submit + harvest, callback
// delivery, shutdown cancellation, lease pins vs eviction and teardown,
// the degradation ladder under async ops, zero-copy/copy byte equality
// (CRC-checked), and a TSan stress mixing ring readers with placement
// and eviction.
#include "core/read_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "../test_support.h"
#include "core/monarch.h"
#include "core/read_lease.h"
#include "storage/memory_engine.h"
#include "util/crc32c.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;
using monarch::testing::Text;

/// Engine whose reads of one gated path block until released — lets a
/// test hold a ring worker mid-op deterministically. Wraps a
/// MemoryEngine (which is final) and delegates everything else.
class GateEngine final : public storage::StorageEngine {
 public:
  explicit GateEngine(std::string gated_path)
      : inner_("gate"), gated_path_(std::move(gated_path)) {}

  Result<std::size_t> Read(std::string_view path, std::uint64_t offset,
                           std::span<std::byte> dst) override {
    MaybeBlock(path);
    return inner_.Read(path, offset, dst);
  }

  Result<storage::ReadView> ReadZeroCopy(std::string_view path,
                                         std::uint64_t offset,
                                         std::uint64_t max_bytes) override {
    MaybeBlock(path);
    return inner_.ReadZeroCopy(path, offset, max_bytes);
  }

  Status Write(const std::string& path,
               std::span<const std::byte> data) override {
    return inner_.Write(path, data);
  }
  Status Delete(const std::string& path) override {
    return inner_.Delete(path);
  }
  Result<std::uint64_t> FileSize(const std::string& path) override {
    return inner_.FileSize(path);
  }
  Result<bool> Exists(const std::string& path) override {
    return inner_.Exists(path);
  }
  Result<std::vector<storage::FileStat>> ListFiles(
      const std::string& dir) override {
    return inner_.ListFiles(dir);
  }
  storage::IoStats& Stats() override { return inner_.Stats(); }
  [[nodiscard]] std::string Name() const override { return "gate"; }

  void Release() {
    std::lock_guard lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  [[nodiscard]] bool blocked() const {
    std::lock_guard lock(mu_);
    return blocked_;
  }

 private:
  void MaybeBlock(std::string_view path) {
    if (path != gated_path_) return;
    std::unique_lock lock(mu_);
    blocked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    blocked_ = false;
  }

  storage::MemoryEngine inner_;
  std::string gated_path_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_ = false;
  bool released_ = false;
};

class ReadRingTest : public ::testing::Test {
 protected:
  /// Two-level memory hierarchy; `files` land on the PFS under "data/".
  Result<std::unique_ptr<Monarch>> Build(
      std::uint64_t local_quota,
      const std::vector<std::pair<std::string, std::string>>& files,
      ReadRingOptions ring = {}, storage::StorageEnginePtr pfs = nullptr) {
    pfs_ = pfs ? std::move(pfs)
               : std::make_shared<storage::MemoryEngine>("pfs");
    local_ = std::make_shared<storage::MemoryEngine>("local");
    for (const auto& [name, data] : files) {
      EXPECT_TRUE(pfs_->Write("data/" + name, Bytes(data)).ok());
    }
    MonarchConfig config;
    config.cache_tiers.push_back(TierSpec{"local", local_, local_quota});
    config.pfs = TierSpec{"pfs", pfs_, 0};
    config.dataset_dir = "data";
    config.placement.num_threads = 2;
    config.placement.enable_eviction = true;
    config.read = ring;
    return Monarch::Create(std::move(config));
  }

  /// Stage `name` into the local tier via a demand read + drain.
  void Stage(Monarch& monarch, const std::string& name, std::size_t size) {
    std::vector<std::byte> buf(size);
    ASSERT_TRUE(monarch.Read(name, 0, buf).ok());
    monarch.DrainPlacements();
  }

  storage::StorageEnginePtr pfs_;
  std::shared_ptr<storage::MemoryEngine> local_;
};

/// Threads of this process (Linux: /proc/self/task, read only).
std::size_t ProcessThreads() {
  std::size_t threads = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++threads;
  }
  return threads;
}

// Creating a Monarch starts its placement workers only: the ring's
// workers start with its first Submit, which still completes, and a ring
// nobody submitted to shuts down at once.
TEST_F(ReadRingTest, RingStartsItsWorkersOnFirstSubmit) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task";
  }
  const std::size_t before = ProcessThreads();
  auto monarch = Build(1 << 20, {{"f1", "payload"}});
  ASSERT_OK(monarch);
  EXPECT_EQ(before + 2, ProcessThreads()) << "the placement workers only";

  ReadRing& ring = monarch.value()->read_ring();
  std::vector<std::byte> buffer(7);
  std::vector<ReadOp> ops(1);
  ops[0].name = "data/f1";
  ops[0].dst = buffer;
  ASSERT_EQ(1u, ring.Submit(std::move(ops)));
  std::vector<ReadCompletion> done;
  while (done.size() < 1 && ring.HarvestBlocking(done) > 0) {
  }
  ASSERT_EQ(1u, done.size());
  ASSERT_OK(done[0].bytes);
  EXPECT_EQ("payload", Text(buffer));
  EXPECT_EQ(before + 2 + static_cast<std::size_t>(ring.options().worker_threads),
            ProcessThreads());

  auto idle = Build(1 << 20, {{"f1", "payload"}});
  ASSERT_OK(idle);
  idle.value()->read_ring().Shutdown();
  EXPECT_EQ(0u, idle.value()->read_ring().Stats().submitted);
}

TEST_F(ReadRingTest, BatchSubmitHarvestsEveryOp) {
  auto monarch = Build(1 << 20, {{"f1", "alpha"}, {"f2", "bravo!"},
                                 {"f3", "charlie77"}});
  ASSERT_OK(monarch);
  ReadRing& ring = monarch.value()->read_ring();

  std::vector<std::vector<std::byte>> buffers(3);
  const std::vector<std::string> names = {"data/f1", "data/f2", "data/f3"};
  const std::vector<std::string> expect = {"alpha", "bravo!", "charlie77"};
  std::vector<ReadOp> ops;
  for (std::size_t i = 0; i < names.size(); ++i) {
    buffers[i].resize(expect[i].size());
    ReadOp op;
    op.name = names[i];
    op.dst = buffers[i];
    op.user_data = i;
    ops.push_back(std::move(op));
  }
  EXPECT_EQ(3u, ring.Submit(std::move(ops)));

  std::vector<ReadCompletion> done;
  while (done.size() < 3) {
    if (ring.HarvestBlocking(done) == 0 && done.size() < 3) {
      FAIL() << "ring drained before all completions arrived";
    }
  }
  // Completions may arrive out of order; user_data correlates them.
  std::set<std::uint64_t> seen;
  for (const ReadCompletion& c : done) {
    ASSERT_OK(c.bytes);
    seen.insert(c.user_data);
    EXPECT_EQ(expect[c.user_data].size(), c.bytes.value());
    EXPECT_EQ(expect[c.user_data], Text(buffers[c.user_data]));
  }
  EXPECT_EQ(3u, seen.size());

  const auto stats = ring.Stats();
  EXPECT_EQ(3u, stats.submitted);
  EXPECT_EQ(3u, stats.completed);
  EXPECT_EQ(0u, stats.cancelled);
}

TEST_F(ReadRingTest, CallbackDeliveryBypassesCompletionQueue) {
  auto monarch = Build(1 << 20, {{"f1", "payload"}});
  ASSERT_OK(monarch);
  ReadRing& ring = monarch.value()->read_ring();

  std::atomic<int> called{0};
  std::atomic<bool> all_ok{true};
  std::vector<ReadOp> ops(8);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].name = "data/f1";
    ops[i].lease = true;
    ops[i].user_data = i;
  }
  ASSERT_EQ(8u, ring.Submit(std::move(ops), [&](ReadCompletion c) {
    if (!c.bytes.ok() || c.lease.size() != 7) all_ok = false;
    called.fetch_add(1);
  }));
  while (called.load() < 8) std::this_thread::yield();
  EXPECT_TRUE(all_ok.load());

  // Callback ops never land on the harvest queue.
  std::vector<ReadCompletion> done;
  EXPECT_EQ(0u, ring.Harvest(done));
}

TEST_F(ReadRingTest, ShutdownCancelsQueuedOpsAndCompletesInflight) {
  auto gate = std::make_shared<GateEngine>("data/slow");
  auto monarch = Build(
      1 << 20, {{"slow", "gated-bytes"}, {"q1", "aaaa"}, {"q2", "bbbb"}},
      ReadRingOptions{/*depth=*/16, /*worker_threads=*/1,
                      /*zero_copy=*/true},
      gate);
  ASSERT_OK(monarch);
  ReadRing& ring = monarch.value()->read_ring();

  // Op 0 blocks the only worker inside the engine. Submit it alone and
  // wait for the block — a single batch would hand all three ops to the
  // worker at once and leave nothing queued to cancel.
  std::vector<ReadOp> first(1);
  first[0].name = "data/slow";
  first[0].lease = true;
  first[0].user_data = 0;
  ASSERT_EQ(1u, ring.Submit(std::move(first)));
  while (!gate->blocked()) std::this_thread::yield();

  // Ops 1 and 2 stay queued behind the blocked worker.
  std::vector<ReadOp> ops(2);
  ops[0].name = "data/q1";
  ops[1].name = "data/q2";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].lease = true;
    ops[i].user_data = i + 1;
  }
  ASSERT_EQ(2u, ring.Submit(std::move(ops)));

  std::thread shutdown([&ring] { ring.Shutdown(); });
  // Shutdown cancels the two queued ops before joining the blocked
  // worker.
  while (ring.Stats().cancelled < 2) std::this_thread::yield();
  gate->Release();
  shutdown.join();

  std::vector<ReadCompletion> done;
  ring.Harvest(done);
  ASSERT_EQ(3u, done.size());
  int ok = 0;
  int cancelled = 0;
  for (const ReadCompletion& c : done) {
    if (c.bytes.ok()) {
      ++ok;
      EXPECT_EQ(0u, c.user_data) << "only the in-flight op completes";
      EXPECT_EQ(11u, c.lease.size());
    } else {
      ++cancelled;
      EXPECT_EQ(StatusCode::kFailedPrecondition, c.bytes.status().code());
    }
  }
  EXPECT_EQ(1, ok);
  EXPECT_EQ(2, cancelled);

  // Submitting into a shut-down ring accepts nothing.
  std::vector<ReadOp> late(1);
  late[0].name = "data/q1";
  EXPECT_EQ(0u, ring.Submit(std::move(late)));
}

TEST_F(ReadRingTest, AsyncOpFallsDownDegradationLadder) {
  auto monarch = Build(1 << 20, {{"f1", "ladder-payload"}});
  ASSERT_OK(monarch);
  Stage(**monarch, "data/f1", 14);

  // Yank the staged copy behind MONARCH's back: the async lease op sees
  // kNotFound on the local tier and must fall through to the PFS.
  ASSERT_TRUE(local_->Delete("data/f1#c0").ok());

  ReadRing& ring = monarch.value()->read_ring();
  std::vector<ReadOp> ops(1);
  ops[0].name = "data/f1";
  ops[0].lease = true;
  ASSERT_EQ(1u, ring.Submit(std::move(ops)));

  std::vector<ReadCompletion> done;
  while (done.size() < 1) ring.HarvestBlocking(done);
  ASSERT_OK(done[0].bytes);
  EXPECT_EQ(1, done[0].level) << "served by the PFS rung";
  std::span<const std::byte> data = done[0].lease.data();
  EXPECT_EQ("ladder-payload",
            Text(std::vector<std::byte>(data.begin(), data.end())));
}

TEST_F(ReadRingTest, ZeroCopyBytesMatchCopiedBytes) {
  const std::string payload(4096, '\0');
  std::string patterned = payload;
  for (std::size_t i = 0; i < patterned.size(); ++i) {
    patterned[i] = static_cast<char>('a' + (i * 13) % 26);
  }
  auto monarch = Build(1 << 20, {{"f1", patterned}});
  ASSERT_OK(monarch);
  Stage(**monarch, "data/f1", patterned.size());

  // Zero-copy lane.
  auto lease = monarch.value()->ReadZeroCopy("data/f1", 0);
  ASSERT_OK(lease);
  EXPECT_TRUE(lease.value().zero_copy());
  const std::uint32_t lent_crc =
      Crc32c(lease.value().data().data(), lease.value().size());

  // Forced-copy lane (same API, allow_zero_copy=false).
  auto copied = monarch.value()->ReadZeroCopy(
      "data/f1", 0, std::numeric_limits<std::uint64_t>::max(),
      /*allow_zero_copy=*/false);
  ASSERT_OK(copied);
  EXPECT_FALSE(copied.value().zero_copy());
  const std::uint32_t copy_crc =
      Crc32c(copied.value().data().data(), copied.value().size());

  // Classic copying Read.
  std::vector<std::byte> buf(patterned.size());
  ASSERT_TRUE(monarch.value()->Read("data/f1", 0, buf).ok());
  const std::uint32_t read_crc = Crc32c(buf.data(), buf.size());

  EXPECT_EQ(lease.value().size(), copied.value().size());
  EXPECT_EQ(lent_crc, copy_crc);
  EXPECT_EQ(lent_crc, read_crc);
  EXPECT_EQ(lent_crc, Crc32c(patterned.data(), patterned.size()));
}

TEST_F(ReadRingTest, PartialZeroCopyReadRespectsOffsetAndCap) {
  auto monarch = Build(1 << 20, {{"f1", "0123456789"}});
  ASSERT_OK(monarch);
  Stage(**monarch, "data/f1", 10);

  auto lease = monarch.value()->ReadZeroCopy("data/f1", 3, 4);
  ASSERT_OK(lease);
  std::span<const std::byte> data = lease.value().data();
  EXPECT_EQ("3456", Text(std::vector<std::byte>(data.begin(), data.end())));

  // Offset past EOF is an empty view, not an error.
  auto past = monarch.value()->ReadZeroCopy("data/f1", 64);
  ASSERT_OK(past);
  EXPECT_TRUE(past.value().empty());
}

TEST_F(ReadRingTest, RingStatsCountZeroCopyHits) {
  auto monarch = Build(1 << 20, {{"f1", "counted"}});
  ASSERT_OK(monarch);
  Stage(**monarch, "data/f1", 7);
  ReadRing& ring = monarch.value()->read_ring();

  std::vector<std::byte> buf(7);
  std::vector<ReadOp> ops(2);
  ops[0].name = "data/f1";
  ops[0].lease = true;
  ops[1].name = "data/f1";
  ops[1].dst = buf;
  ASSERT_EQ(2u, ring.Submit(std::move(ops)));
  std::vector<ReadCompletion> done;
  while (done.size() < 2) ring.HarvestBlocking(done);

  const auto stats = ring.Stats();
  EXPECT_EQ(1u, stats.zero_copy_reads);
  EXPECT_EQ(1u, stats.copy_reads);
  EXPECT_DOUBLE_EQ(0.5, stats.zero_copy_hit_rate());
}

TEST_F(ReadRingTest, LaneOffServesLeasesByCopy) {
  // With the zero-copy lane switched off, a lease op on a memory-backed
  // tier is still served byte-identical, but as a copy.
  auto monarch = Build(1 << 20, {{"f1", "copied-lease"}},
                       ReadRingOptions{/*depth=*/8, /*worker_threads=*/1,
                                       /*zero_copy=*/false});
  ASSERT_OK(monarch);
  Stage(**monarch, "data/f1", 12);
  ReadRing& ring = monarch.value()->read_ring();

  std::vector<ReadOp> ops(1);
  ops[0].name = "data/f1";
  ops[0].lease = true;
  ASSERT_EQ(1u, ring.Submit(std::move(ops)));
  std::vector<ReadCompletion> done;
  while (done.empty()) ring.HarvestBlocking(done);
  ASSERT_OK(done[0].bytes);
  EXPECT_FALSE(done[0].lease.zero_copy());
  std::span<const std::byte> data = done[0].lease.data();
  EXPECT_EQ("copied-lease",
            Text(std::vector<std::byte>(data.begin(), data.end())));
  const auto stats = ring.Stats();
  EXPECT_EQ(0u, stats.zero_copy_reads);
  EXPECT_EQ(1u, stats.copy_reads);
}

TEST_F(ReadRingTest, LeasePinBlocksEviction) {
  // Quota fits ONE staged file; staging a second must evict the first —
  // unless a lease pins it.
  const std::string payload(256, 'x');
  auto monarch = Build(300, {{"f1", payload}, {"f2", payload}},
                       ReadRingOptions{});
  ASSERT_OK(monarch);
  Stage(**monarch, "data/f1", payload.size());

  auto lease = monarch.value()->ReadZeroCopy("data/f1", 0);
  ASSERT_OK(lease);
  ASSERT_TRUE(lease.value().pinned());

  // Demand f2 while f1 is pinned: eviction claims f1, sees the pin, and
  // reverts (the staging of f2 is refused, not served by evicting f1).
  std::vector<std::byte> buf(payload.size());
  ASSERT_TRUE(monarch.value()->Read("data/f2", 0, buf).ok());
  monarch.value()->DrainPlacements();

  EXPECT_GE(monarch.value()->Stats().placement.eviction_pinned_skips, 1u);
  EXPECT_TRUE(local_->Exists("data/f1#c0").value_or(false))
      << "pinned copy must survive";
  std::span<const std::byte> data = lease.value().data();
  EXPECT_EQ(payload, Text(std::vector<std::byte>(data.begin(), data.end())));

  // Released, the copy becomes a legal victim again.
  lease.value().Release();
  EXPECT_FALSE(lease.value().pinned());
  ASSERT_TRUE(monarch.value()->Read("data/f2", 0, buf).ok());
  monarch.value()->DrainPlacements();
  EXPECT_TRUE(local_->Exists("data/f2#c0").value_or(false))
      << "eviction proceeds once unpinned";
}

TEST_F(ReadRingTest, LeaseOutlivesEngineDeleteAndShutdown) {
  auto monarch = Build(1 << 20, {{"f1", "immortal-bytes"}});
  ASSERT_OK(monarch);
  Stage(**monarch, "data/f1", 14);

  auto lease = monarch.value()->ReadZeroCopy("data/f1", 0);
  ASSERT_OK(lease);
  ASSERT_TRUE(lease.value().zero_copy());

  // Delete the file from the lending engine, then tear the whole
  // instance down: the view's keepalive must keep the bytes valid.
  ASSERT_TRUE(local_->Delete("data/f1#c0").ok());
  monarch.value()->Shutdown();
  monarch.value().reset();
  local_.reset();
  pfs_.reset();

  std::span<const std::byte> data = lease.value().data();
  EXPECT_EQ("immortal-bytes",
            Text(std::vector<std::byte>(data.begin(), data.end())));
}

TEST_F(ReadRingTest, MovedLeaseTransfersThePin) {
  auto monarch = Build(1 << 20, {{"f1", "move-me"}});
  ASSERT_OK(monarch);
  Stage(**monarch, "data/f1", 7);

  auto lease = monarch.value()->ReadZeroCopy("data/f1", 0);
  ASSERT_OK(lease);
  FileInfoPtr info = monarch.value()->metadata().Lookup("data/f1");
  ASSERT_NE(nullptr, info);
  EXPECT_EQ(1, info->read_pins.load());

  ReadLease moved = std::move(lease).value();
  EXPECT_EQ(1, info->read_pins.load()) << "move must not double-count";
  EXPECT_TRUE(moved.pinned());
  moved.Release();
  EXPECT_EQ(0, info->read_pins.load());
  moved.Release();  // idempotent
  EXPECT_EQ(0, info->read_pins.load());
}

// TSan stress: async lease/copy readers race demand reads, placement,
// and quota-pressure eviction over a tier that holds only a few files.
TEST_F(ReadRingTest, StressAsyncReadersVsPlacementAndEviction) {
  const std::string payload(512, 'p');
  std::vector<std::pair<std::string, std::string>> files;
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) {
    files.emplace_back("f" + std::to_string(i), payload);
    names.push_back("data/f" + std::to_string(i));
  }
  // Quota fits ~3 files: constant eviction pressure.
  auto monarch = Build(1600, files,
                       ReadRingOptions{/*depth=*/64, /*worker_threads=*/2,
                                       /*zero_copy=*/true});
  ASSERT_OK(monarch);
  ReadRing& ring = monarch.value()->read_ring();

  std::atomic<bool> stop{false};
  std::atomic<int> async_ok{0};
  std::atomic<bool> corrupt{false};

  // Two submitter threads: callback-verified lease + copy ops.
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; !stop.load(); ++round) {
        std::vector<ReadOp> ops(4);
        for (int i = 0; i < 4; ++i) {
          ops[static_cast<std::size_t>(i)].name =
              names[static_cast<std::size_t>((round + i * 3 + t) % 8)];
          ops[static_cast<std::size_t>(i)].lease = true;
        }
        if (ring.Submit(std::move(ops), [&](ReadCompletion c) {
              if (!c.bytes.ok()) return;  // shutdown races are fine
              if (c.lease.size() != payload.size() ||
                  static_cast<char>(c.lease.data()[0]) != 'p') {
                corrupt = true;
              }
              async_ok.fetch_add(1);
            }) == 0) {
          return;
        }
      }
    });
  }

  // Main thread: demand reads keep placement and eviction churning.
  std::vector<std::byte> buf(payload.size());
  for (int round = 0; round < 30; ++round) {
    for (const std::string& name : names) {
      ASSERT_TRUE(monarch.value()->Read(name, 0, buf).ok());
    }
    monarch.value()->DrainPlacements();
  }
  while (async_ok.load() < 64) std::this_thread::yield();
  stop = true;
  for (std::thread& t : submitters) t.join();
  monarch.value()->Shutdown();

  EXPECT_FALSE(corrupt.load()) << "a lent page was recycled mid-read";
  EXPECT_GE(async_ok.load(), 64);
}

}  // namespace
}  // namespace monarch::core

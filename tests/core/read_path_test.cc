// The one read path: Monarch::Read into the caller's buffer, and the
// visit pin (Monarch::PinVisit) a file visit holds around its reads. The
// degradation ladder under a vanished copy, reads at an offset, with a
// short buffer and past EOF, the pin against eviction and across a move
// and shutdown, and a TSan stress mixing pinned readers with placement
// and eviction.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../test_support.h"
#include "core/monarch.h"
#include "core/read_lease.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;
using monarch::testing::Text;

class ReadPathTest : public ::testing::Test {
 protected:
  /// Two-level memory hierarchy; `files` land on the PFS under "data/".
  Result<std::unique_ptr<Monarch>> Build(
      std::uint64_t local_quota,
      const std::vector<std::pair<std::string, std::string>>& files) {
    pfs_ = std::make_shared<storage::MemoryEngine>("pfs");
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
    return Monarch::Create(std::move(config));
  }

  /// Stage `name` into the local tier via a demand read + drain.
  void Stage(Monarch& monarch, const std::string& name, std::size_t size) {
    std::vector<std::byte> buf(size);
    ASSERT_TRUE(monarch.Read(name, 0, buf).ok());
    monarch.DrainPlacements();
  }

  std::shared_ptr<storage::MemoryEngine> pfs_;
  std::shared_ptr<storage::MemoryEngine> local_;
};

TEST_F(ReadPathTest, ReadFallsDownDegradationLadder) {
  auto monarch = Build(1 << 20, {{"f1", "ladder-payload"}});
  ASSERT_OK(monarch);
  Stage(**monarch, "data/f1", 14);
  const MonarchStats before = monarch.value()->Stats();

  // Yank the staged copy behind MONARCH's back: the read sees kNotFound
  // on the local tier and must fall through to the PFS.
  ASSERT_TRUE(local_->Delete("data/f1#c0").ok());

  std::vector<std::byte> buf(14);
  auto read = monarch.value()->Read("data/f1", 0, buf);
  ASSERT_OK(read);
  EXPECT_EQ(14u, read.value());
  EXPECT_EQ("ladder-payload", Text(buf));
  const MonarchStats after = monarch.value()->Stats();
  EXPECT_EQ(before.pfs_reads() + 1, after.pfs_reads())
      << "served by the PFS rung";
  EXPECT_EQ(before.levels[0].reads, after.levels[0].reads);
}

TEST_F(ReadPathTest, ReadsAtOffsetWithShortBufferAndPastEof) {
  auto monarch = Build(1 << 20, {{"f1", "0123456789"}});
  ASSERT_OK(monarch);
  Stage(**monarch, "data/f1", 10);

  std::vector<std::byte> four(4);
  auto read = monarch.value()->Read("data/f1", 3, four);
  ASSERT_OK(read);
  EXPECT_EQ(4u, read.value());
  EXPECT_EQ("3456", Text(four));

  // A buffer longer than the rest of the file is filled up to EOF.
  std::vector<std::byte> tail(8);
  read = monarch.value()->Read("data/f1", 7, tail);
  ASSERT_OK(read);
  ASSERT_EQ(3u, read.value());
  tail.resize(3);
  EXPECT_EQ("789", Text(tail));

  // An offset past EOF reads nothing, and is not an error.
  auto past = monarch.value()->Read("data/f1", 64, four);
  ASSERT_OK(past);
  EXPECT_EQ(0u, past.value());
}

TEST_F(ReadPathTest, VisitPinBlocksEviction) {
  // Quota fits ONE staged file; staging a second must evict the first —
  // unless a visit pins it.
  const std::string payload(256, 'x');
  auto monarch = Build(300, {{"f1", payload}, {"f2", payload}});
  ASSERT_OK(monarch);
  Stage(**monarch, "data/f1", payload.size());

  ReadLease visit = monarch.value()->PinVisit("data/f1");
  ASSERT_TRUE(visit.pinned());

  // Demand f2 while f1 is pinned: eviction claims f1, sees the pin, and
  // reverts (the staging of f2 is refused, not served by evicting f1).
  std::vector<std::byte> buf(payload.size());
  ASSERT_TRUE(monarch.value()->Read("data/f2", 0, buf).ok());
  monarch.value()->DrainPlacements();

  EXPECT_GE(monarch.value()->Stats().placement.eviction_pinned_skips, 1u);
  EXPECT_TRUE(local_->Exists("data/f1#c0").value_or(false))
      << "pinned copy must survive";
  ASSERT_TRUE(monarch.value()->Read("data/f1", 0, buf).ok());
  EXPECT_EQ(payload, Text(buf));

  // Released, the copy becomes a legal victim again.
  visit.Release();
  EXPECT_FALSE(visit.pinned());
  ASSERT_TRUE(monarch.value()->Read("data/f2", 0, buf).ok());
  monarch.value()->DrainPlacements();
  EXPECT_TRUE(local_->Exists("data/f2#c0").value_or(false))
      << "eviction proceeds once unpinned";
}

TEST_F(ReadPathTest, MovedVisitPinCarriesThePin) {
  auto monarch = Build(1 << 20, {{"f1", "move-me"}});
  ASSERT_OK(monarch);
  Stage(**monarch, "data/f1", 7);

  ReadLease visit = monarch.value()->PinVisit("data/f1");
  FileInfoPtr info = monarch.value()->metadata().Lookup("data/f1");
  ASSERT_NE(nullptr, info);
  EXPECT_EQ(1, info->read_pins.load());
  EXPECT_EQ(1, info->readers_coming.load());

  ReadLease moved = std::move(visit);
  EXPECT_EQ(1, info->read_pins.load()) << "move must not double-count";
  EXPECT_EQ(1, info->readers_coming.load());
  EXPECT_FALSE(visit.pinned());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved.pinned());

  // Move-assigning over a held pin releases the one it held.
  ReadLease other = monarch.value()->PinVisit("data/f1");
  EXPECT_EQ(2, info->read_pins.load());
  moved = std::move(other);
  EXPECT_EQ(1, info->read_pins.load());
  EXPECT_EQ(1, info->readers_coming.load());

  moved.Release();
  EXPECT_EQ(0, info->read_pins.load());
  EXPECT_EQ(0, info->readers_coming.load());
  moved.Release();  // idempotent
  EXPECT_EQ(0, info->read_pins.load());

  EXPECT_FALSE(monarch.value()->PinVisit("data/absent").pinned())
      << "an unindexed file has nothing to pin";
}

TEST_F(ReadPathTest, VisitPinOutlivesShutdown) {
  auto monarch = Build(1 << 20, {{"f1", "outlived"}});
  ASSERT_OK(monarch);
  Stage(**monarch, "data/f1", 8);

  ReadLease visit = monarch.value()->PinVisit("data/f1");
  ASSERT_TRUE(visit.pinned());
  // Tear the whole instance down under the open visit: the pin owns its
  // file record, so releasing it afterwards touches nothing freed.
  monarch.value()->Shutdown();
  monarch.value().reset();
  local_.reset();
  pfs_.reset();
  EXPECT_TRUE(visit.pinned());
  visit.Release();
  EXPECT_FALSE(visit.pinned());
}

// TSan stress: pinned visitors race demand reads, placement, and
// quota-pressure eviction over a tier that holds only a few files.
TEST_F(ReadPathTest, StressPinnedReadersVsPlacementAndEviction) {
  const std::string payload(512, 'p');
  std::vector<std::pair<std::string, std::string>> files;
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) {
    files.emplace_back("f" + std::to_string(i), payload);
    names.push_back("data/f" + std::to_string(i));
  }
  // Quota fits ~3 files: constant eviction pressure.
  auto monarch = Build(1600, files);
  ASSERT_OK(monarch);
  Monarch& m = **monarch;

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::atomic<bool> corrupt{false};
  std::atomic<bool> failed{false};

  // Two visitor threads: each pins a file and reads it in two halves.
  std::vector<std::thread> visitors;
  for (int t = 0; t < 2; ++t) {
    visitors.emplace_back([&, t] {
      std::vector<std::byte> half(payload.size() / 2);
      for (int round = 0; !stop.load(); ++round) {
        const std::string& name =
            names[static_cast<std::size_t>((round * 3 + t) % 8)];
        const ReadLease visit = m.PinVisit(name);
        for (std::uint64_t offset : {std::uint64_t{0}, half.size()}) {
          auto read = m.Read(name, offset, half);
          if (!read.ok() || read.value() != half.size()) {
            failed = true;
            return;
          }
          if (Text(half) != payload.substr(0, half.size())) corrupt = true;
          reads.fetch_add(1);
        }
      }
    });
  }

  // Main thread: whole-file demand reads keep placement and eviction
  // churning.
  std::vector<std::byte> buf(payload.size());
  for (int round = 0; round < 30; ++round) {
    for (const std::string& name : names) {
      ASSERT_TRUE(m.Read(name, 0, buf).ok());
    }
    m.DrainPlacements();
  }
  while (reads.load() < 64 && !failed.load()) std::this_thread::yield();
  stop = true;
  for (std::thread& t : visitors) t.join();
  m.Shutdown();

  EXPECT_FALSE(failed.load()) << "a pinned read failed or came up short";
  EXPECT_FALSE(corrupt.load()) << "a pinned read returned wrong bytes";
  EXPECT_GE(reads.load(), 64);
  for (const std::string& name : names) {
    EXPECT_EQ(0, m.metadata().Lookup(name)->read_pins.load()) << name;
  }
}

}  // namespace
}  // namespace monarch::core

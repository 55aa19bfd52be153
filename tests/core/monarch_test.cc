#include "core/monarch.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "../test_support.h"
#include "file_state.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;
using monarch::testing::Text;

class MonarchTest : public ::testing::Test {
 protected:
  /// Build a 2-level instance over memory engines. `files` are written to
  /// the PFS under "data/" before Create() runs.
  Result<std::unique_ptr<Monarch>> Build(
      std::uint64_t local_quota,
      const std::vector<std::pair<std::string, std::string>>& files,
      PlacementOptions placement = {}) {
    pfs_ = std::make_shared<storage::MemoryEngine>("pfs");
    local_ = std::make_shared<storage::MemoryEngine>("local");
    for (const auto& [name, data] : files) {
      EXPECT_TRUE(pfs_->Write("data/" + name, Bytes(data)).ok());
    }
    MonarchConfig config;
    config.cache_tiers.push_back(TierSpec{"local", local_, local_quota});
    config.pfs = TierSpec{"pfs", pfs_, 0};
    config.dataset_dir = "data";
    placement.num_threads = 2;
    config.placement = placement;
    return Monarch::Create(std::move(config));
  }

  std::string ReadAll(Monarch& monarch, const std::string& name,
                      std::size_t size) {
    std::vector<std::byte> buf(size);
    auto read = monarch.Read(name, 0, buf);
    EXPECT_TRUE(read.ok()) << read.status();
    buf.resize(read.value_or(0));
    return Text(buf);
  }

  std::shared_ptr<storage::MemoryEngine> pfs_;
  std::shared_ptr<storage::MemoryEngine> local_;
};

TEST_F(MonarchTest, CreateIndexesDataset) {
  auto monarch = Build(1000, {{"f1", "aaa"}, {"f2", "bbbb"}});
  ASSERT_OK(monarch);
  const auto stats = monarch.value()->Stats();
  EXPECT_EQ(2u, stats.files_indexed);
  EXPECT_EQ(7u, stats.dataset_bytes);
  EXPECT_GE(stats.metadata_init_seconds, 0.0);
  ASSERT_EQ(2u, stats.levels.size());
  EXPECT_EQ("local", stats.levels[0].tier_name);
  EXPECT_EQ("pfs", stats.levels[1].tier_name);
}

TEST_F(MonarchTest, CreateRejectsBadConfigs) {
  MonarchConfig no_pfs;
  no_pfs.cache_tiers.push_back(
      TierSpec{"l", std::make_shared<storage::MemoryEngine>(), 10});
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     Monarch::Create(std::move(no_pfs)));

  MonarchConfig no_tiers;
  no_tiers.pfs = TierSpec{"p", std::make_shared<storage::MemoryEngine>(), 0};
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     Monarch::Create(std::move(no_tiers)));

  MonarchConfig zero_quota;
  zero_quota.cache_tiers.push_back(
      TierSpec{"l", std::make_shared<storage::MemoryEngine>(), 0});
  zero_quota.pfs = TierSpec{"p", std::make_shared<storage::MemoryEngine>(), 0};
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     Monarch::Create(std::move(zero_quota)));
}

TEST_F(MonarchTest, FirstReadServedFromPfs) {
  auto monarch = Build(1000, {{"f1", "payload-one"}});
  ASSERT_OK(monarch);
  EXPECT_EQ("payload-one", ReadAll(**monarch, "data/f1", 11));
  const auto stats = monarch.value()->Stats();
  EXPECT_EQ(1u, stats.levels[1].reads) << "first read hits the PFS";
  EXPECT_EQ(0u, stats.levels[0].reads);
}

TEST_F(MonarchTest, SecondReadServedFromLocalAfterPlacement) {
  auto monarch = Build(1000, {{"f1", "payload-one"}});
  ASSERT_OK(monarch);
  ReadAll(**monarch, "data/f1", 11);
  monarch.value()->DrainPlacements();

  EXPECT_EQ("payload-one", ReadAll(**monarch, "data/f1", 11));
  const auto stats = monarch.value()->Stats();
  EXPECT_EQ(1u, stats.levels[1].reads);
  EXPECT_EQ(1u, stats.levels[0].reads) << "steady state serves from local";
  EXPECT_EQ(1u, stats.placement.completed);
  EXPECT_EQ(11u, stats.levels[0].occupancy_bytes);
}

TEST_F(MonarchTest, PartialReadTriggersFullFileFetch) {
  auto monarch = Build(1000, {{"f1", "0123456789ABCDEF"}});
  ASSERT_OK(monarch);

  std::vector<std::byte> buf(4);
  auto read = monarch.value()->Read("data/f1", 4, buf);
  ASSERT_OK(read);
  EXPECT_EQ("4567", Text(buf));

  monarch.value()->DrainPlacements();
  // The WHOLE file (16 bytes), not just the 4 requested, was staged.
  std::vector<std::byte> staged(16);
  auto local_read = local_->Read("data/f1#c0", 0, staged);
  ASSERT_OK(local_read);
  EXPECT_EQ(16u, local_read.value());
  EXPECT_EQ("0123456789ABCDEF", Text(staged));
  EXPECT_EQ(16u, monarch.value()->Stats().placement.bytes_staged);
}

TEST_F(MonarchTest, PartialReadNotStagedWhenOptimisationDisabled) {
  PlacementOptions placement;
  placement.fetch_full_file_on_partial_read = false;
  auto monarch = Build(1000, {{"f1", "0123456789ABCDEF"}}, placement);
  ASSERT_OK(monarch);

  std::vector<std::byte> buf(4);
  ASSERT_OK(monarch.value()->Read("data/f1", 4, buf));
  monarch.value()->DrainPlacements();
  EXPECT_EQ(0u, monarch.value()->Stats().placement.scheduled);

  // A full read still stages.
  std::vector<std::byte> full(16);
  ASSERT_OK(monarch.value()->Read("data/f1", 0, full));
  monarch.value()->DrainPlacements();
  EXPECT_EQ(1u, monarch.value()->Stats().placement.completed);
}

TEST_F(MonarchTest, FullReadPassesContentWithoutSecondPfsRead) {
  auto monarch = Build(1000, {{"f1", "whole-file-content"}});
  ASSERT_OK(monarch);

  ReadAll(**monarch, "data/f1", 18);
  monarch.value()->DrainPlacements();

  // Exactly one PFS data read: the framework's own. The placement reused
  // the content instead of re-reading (paper §III-B: event ③ skipped).
  EXPECT_EQ(1u, pfs_->Stats().Snapshot().read_ops);
  EXPECT_EQ(1u, monarch.value()->Stats().placement.completed);
}

TEST_F(MonarchTest, BytesIdenticalRegardlessOfServingTier) {
  const std::string content = "the-exact-bytes-must-never-change";
  auto monarch = Build(1000, {{"f1", content}});
  ASSERT_OK(monarch);
  EXPECT_EQ(content, ReadAll(**monarch, "data/f1", content.size()));
  monarch.value()->DrainPlacements();
  EXPECT_EQ(content, ReadAll(**monarch, "data/f1", content.size()));
  // Offset reads agree too.
  std::vector<std::byte> buf(9);
  ASSERT_OK(monarch.value()->Read("data/f1", 4, buf));
  EXPECT_EQ(content.substr(4, 9), Text(buf));
}

TEST_F(MonarchTest, OversizedFileStaysOnPfs) {
  auto monarch = Build(8, {{"big", "way-too-big-for-the-tier"}});
  ASSERT_OK(monarch);
  ReadAll(**monarch, "data/big", 24);
  monarch.value()->DrainPlacements();

  const auto stats = monarch.value()->Stats();
  EXPECT_EQ(1u, stats.placement.rejected_no_space);
  EXPECT_EQ(0u, stats.levels[0].occupancy_bytes);
  // Subsequent reads keep hitting the PFS but do NOT re-schedule
  // placement (the file is parked).
  ReadAll(**monarch, "data/big", 24);
  monarch.value()->DrainPlacements();
  EXPECT_EQ(1u, monarch.value()->Stats().placement.scheduled);
}

TEST_F(MonarchTest, PartialDatasetScenario) {
  // 3 files of 10 bytes, quota 25: two place, one stays on the PFS —
  // the paper's 200 GiB case in miniature.
  auto monarch = Build(25, {{"f1", "0123456789"},
                            {"f2", "0123456789"},
                            {"f3", "0123456789"}});
  ASSERT_OK(monarch);
  for (const char* name : {"data/f1", "data/f2", "data/f3"}) {
    ReadAll(**monarch, name, 10);
    monarch.value()->DrainPlacements();
  }
  const auto stats = monarch.value()->Stats();
  EXPECT_EQ(2u, stats.placement.completed);
  EXPECT_EQ(1u, stats.placement.rejected_no_space);
  EXPECT_EQ(20u, stats.levels[0].occupancy_bytes);

  // Epoch 2: two reads local, one from the PFS.
  const auto before = monarch.value()->Stats();
  for (const char* name : {"data/f1", "data/f2", "data/f3"}) {
    ReadAll(**monarch, name, 10);
  }
  const auto after = monarch.value()->Stats();
  EXPECT_EQ(2u, after.levels[0].reads - before.levels[0].reads);
  EXPECT_EQ(1u, after.levels[1].reads - before.levels[1].reads);
}

TEST_F(MonarchTest, UnknownFileLazilyDiscovered) {
  auto monarch = Build(1000, {{"f1", "aaa"}});
  ASSERT_OK(monarch);
  // File written to the PFS *after* startup indexing.
  ASSERT_OK(pfs_->Write("data/late", Bytes("late-file")));
  EXPECT_EQ("late-file", ReadAll(**monarch, "data/late", 9));
  EXPECT_EQ(2u, monarch.value()->Stats().files_indexed);
}

TEST_F(MonarchTest, MissingFileIsNotFound) {
  auto monarch = Build(1000, {{"f1", "aaa"}});
  ASSERT_OK(monarch);
  std::vector<std::byte> buf(4);
  EXPECT_STATUS_CODE(StatusCode::kNotFound,
                     monarch.value()->Read("data/ghost", 0, buf));
}

TEST_F(MonarchTest, FileSizeFromNamespaceWithoutBackendTrip) {
  auto monarch = Build(1000, {{"f1", "12345"}});
  ASSERT_OK(monarch);
  const auto before = pfs_->Stats().Snapshot();
  EXPECT_EQ(5u, monarch.value()->FileSize("data/f1").value());
  EXPECT_EQ(before.metadata_ops, pfs_->Stats().Snapshot().metadata_ops);
}

TEST_F(MonarchTest, StopPlacementFreezesStaging) {
  auto monarch = Build(1000, {{"f1", "aaa"}, {"f2", "bbb"}});
  ASSERT_OK(monarch);
  ReadAll(**monarch, "data/f1", 3);
  monarch.value()->DrainPlacements();
  monarch.value()->StopPlacement();

  ReadAll(**monarch, "data/f2", 3);
  monarch.value()->DrainPlacements();
  const auto stats = monarch.value()->Stats();
  EXPECT_EQ(1u, stats.placement.completed);
  EXPECT_TRUE(PfsOnly(*monarch.value()->metadata().Lookup("data/f2")));
}

TEST_F(MonarchTest, ShutdownIsIdempotentAndDrains) {
  auto monarch = Build(1000, {{"f1", "aaa"}});
  ASSERT_OK(monarch);
  ReadAll(**monarch, "data/f1", 3);
  monarch.value()->Shutdown();
  monarch.value()->Shutdown();
  SUCCEED();
}

TEST_F(MonarchTest, ConcurrentReadersOfSameFileStageOnce) {
  const std::string content(1000, 'z');
  auto monarch = Build(10000, {{"hot", content}});
  ASSERT_OK(monarch);

  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      std::vector<std::byte> buf(100);
      for (int i = 0; i < 20; ++i) {
        auto read =
            monarch.value()->Read("data/hot", static_cast<std::uint64_t>(i * 7), buf);
        if (!read.ok()) ok.store(false);
      }
    });
  }
  for (auto& t : threads) t.join();
  monarch.value()->DrainPlacements();

  EXPECT_TRUE(ok.load());
  const auto stats = monarch.value()->Stats();
  EXPECT_EQ(1u, stats.placement.scheduled)
      << "the FileInfo CAS must dedupe concurrent first reads";
  EXPECT_EQ(1u, stats.placement.completed);
  EXPECT_EQ(1000u, stats.levels[0].occupancy_bytes);
}

TEST_F(MonarchTest, ConcurrentReadsAcrossManyFilesAllPlace) {
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < 40; ++i) {
    files.emplace_back("f" + std::to_string(i), std::string(50, 'a'));
  }
  auto monarch = Build(10000, files);
  ASSERT_OK(monarch);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::byte> buf(50);
      for (int i = t; i < 40; i += 4) {
        ASSERT_OK(
            monarch.value()->Read("data/f" + std::to_string(i), 0, buf));
      }
    });
  }
  for (auto& t : threads) t.join();
  monarch.value()->DrainPlacements();

  const auto stats = monarch.value()->Stats();
  EXPECT_EQ(40u, stats.placement.completed);
  EXPECT_EQ(40u * 50, stats.levels[0].occupancy_bytes);
}

TEST_F(MonarchTest, LoaderFirstReadCostsOneMorePfsOpToStage) {
  // A loader opens a one-chunk shard with a 64 KiB read: the staging task
  // takes those bytes from the read and fetches only the rest of the
  // shard, with one PFS read.
  std::string shard(900 * 1024, '\0');
  for (std::size_t i = 0; i < shard.size(); ++i) {
    shard[i] = static_cast<char>('a' + i % 23);
  }
  auto monarch = Build(1 << 20, {{"shard", shard}});
  ASSERT_OK(monarch);
  std::vector<std::byte> buf(64 * 1024);
  ASSERT_OK(monarch.value()->Read("data/shard", 0, buf));
  monarch.value()->DrainPlacements();
  EXPECT_EQ(2u, pfs_->Stats().Snapshot().read_ops);
  EXPECT_EQ(64u * 1024, monarch.value()->Stats().placement.donated_bytes);
  EXPECT_EQ(1u, monarch.value()->Stats().placement.chunks_copied);
  EXPECT_EQ(shard, ReadAll(**monarch, "data/shard", shard.size()));
  EXPECT_EQ(2u, pfs_->Stats().Snapshot().read_ops);
}

TEST_F(MonarchTest, EmptyFileHandled) {
  auto monarch = Build(1000, {{"empty", ""}});
  ASSERT_OK(monarch);
  std::vector<std::byte> buf(4);
  auto read = monarch.value()->Read("data/empty", 0, buf);
  ASSERT_OK(read);
  EXPECT_EQ(0u, read.value());
  monarch.value()->DrainPlacements();
  // A zero-byte file has no chunk, so there is nothing to stage.
  EXPECT_TRUE(PfsOnly(*monarch.value()->metadata().Lookup("data/empty")));
  EXPECT_EQ(0u, monarch.value()->Stats().placement.scheduled);
}

TEST_F(MonarchTest, QuotaNeverExceededUnderConcurrentPlacement) {
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < 30; ++i) {
    files.emplace_back("f" + std::to_string(i), std::string(10, 'x'));
  }
  auto monarch = Build(105, files);  // room for 10 of 30 files
  ASSERT_OK(monarch);

  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::byte> buf(10);
      for (int i = t; i < 30; i += 6) {
        ASSERT_OK(
            monarch.value()->Read("data/f" + std::to_string(i), 0, buf));
      }
    });
  }
  for (auto& t : threads) t.join();
  monarch.value()->DrainPlacements();

  const auto stats = monarch.value()->Stats();
  EXPECT_LE(stats.levels[0].occupancy_bytes, 105u);
  EXPECT_EQ(10u, stats.placement.completed);
  EXPECT_EQ(20u, stats.placement.rejected_no_space);
  EXPECT_EQ(100u, local_->TotalBytes())
      << "occupancy accounting must match actual stored bytes";
}

TEST_F(MonarchTest, FallsBackToPfsWhenTierCopyVanishes) {
  auto monarch = Build(1000, {{"f1", "resilient-bytes"}});
  ASSERT_OK(monarch);
  ReadAll(**monarch, "data/f1", 15);
  monarch.value()->DrainPlacements();
  ASSERT_EQ(
      0, monarch.value()->metadata().Lookup("data/f1")->chunk_map()->tier());

  // Simulate the eviction race: the tier copy disappears while the
  // namespace still points at level 0.
  ASSERT_OK(local_->Delete("data/f1#c0"));
  EXPECT_EQ("resilient-bytes", ReadAll(**monarch, "data/f1", 15))
      << "read must fall back to the authoritative PFS copy";

  // The vanished copy was dropped, its quota released, and the fallback
  // read re-staged the file: the next read is a tier hit again.
  monarch.value()->DrainPlacements();
  const std::uint64_t pfs_reads = monarch.value()->Stats().pfs_reads();
  EXPECT_EQ("resilient-bytes", ReadAll(**monarch, "data/f1", 15));
  const auto stats = monarch.value()->Stats();
  EXPECT_EQ(pfs_reads, stats.pfs_reads()) << "served from the tier";
  EXPECT_EQ(15u, stats.levels[0].occupancy_bytes)
      << "one copy of the file is accounted, not two";
}

TEST_F(MonarchTest, ThreeTierHierarchySpillsDownward) {
  pfs_ = std::make_shared<storage::MemoryEngine>("pfs");
  auto ram = std::make_shared<storage::MemoryEngine>("ram");
  auto ssd = std::make_shared<storage::MemoryEngine>("ssd");
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(pfs_->Write("data/f" + std::to_string(i), Bytes("0123456789")));
  }
  MonarchConfig config;
  config.cache_tiers.push_back(TierSpec{"ram", ram, 15});   // one file
  config.cache_tiers.push_back(TierSpec{"ssd", ssd, 25});   // two files
  config.pfs = TierSpec{"pfs", pfs_, 0};
  config.dataset_dir = "data";
  auto monarch = Monarch::Create(std::move(config));
  ASSERT_OK(monarch);

  std::vector<std::byte> buf(10);
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(monarch.value()->Read("data/f" + std::to_string(i), 0, buf));
    monarch.value()->DrainPlacements();
  }
  const auto stats = monarch.value()->Stats();
  ASSERT_EQ(3u, stats.levels.size());
  EXPECT_EQ(10u, stats.levels[0].occupancy_bytes);  // 1 file in RAM
  EXPECT_EQ(20u, stats.levels[1].occupancy_bytes);  // 2 files on SSD
  EXPECT_EQ(3u, stats.placement.completed);
  EXPECT_EQ(1u, stats.placement.rejected_no_space);  // 4th file stays on PFS
}

}  // namespace
}  // namespace monarch::core

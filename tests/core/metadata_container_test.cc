#include "core/metadata_container.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "../test_support.h"
#include "file_state.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;

TEST(MetadataContainerTest, StartsEmpty) {
  MetadataContainer container;
  EXPECT_EQ(0u, container.FileCount());
  EXPECT_EQ(0u, container.TotalBytes());
  EXPECT_EQ(nullptr, container.Lookup("x"));
  EXPECT_FALSE(container.Contains("x"));
}

TEST(MetadataContainerTest, RegisterAndLookup) {
  MetadataContainer container;
  EXPECT_TRUE(container.Register("dataset/f1", 100));
  EXPECT_FALSE(container.Register("dataset/f1", 100)) << "no duplicates";

  auto info = container.Lookup("dataset/f1");
  ASSERT_NE(nullptr, info);
  EXPECT_EQ("dataset/f1", info->name);
  EXPECT_EQ(100u, info->size);
  EXPECT_EQ(nullptr, info->chunk_map()) << "never read: no tier holds it";
  EXPECT_TRUE(PfsOnly(*info));
  EXPECT_EQ(1u, container.FileCount());
  EXPECT_EQ(100u, container.TotalBytes());
}

TEST(MetadataContainerTest, PopulateWalksDatasetDirectory) {
  auto engine = std::make_shared<storage::MemoryEngine>();
  ASSERT_OK(engine->Write("data/f1", Bytes("11")));
  ASSERT_OK(engine->Write("data/f2", Bytes("2222")));
  ASSERT_OK(engine->Write("elsewhere/f3", Bytes("x")));

  MetadataContainer container;
  auto count = container.Populate(*engine, "data");
  ASSERT_OK(count);
  EXPECT_EQ(2u, count.value());
  EXPECT_EQ(2u, container.FileCount());
  EXPECT_EQ(6u, container.TotalBytes());
  EXPECT_TRUE(container.Contains("data/f1"));
  EXPECT_FALSE(container.Contains("elsewhere/f3"));
  EXPECT_GE(container.init_seconds(), 0.0);
}

TEST(MetadataContainerTest, PopulateMissingDirFails) {
  auto engine = std::make_shared<storage::MemoryEngine>();
  MetadataContainer container;
  EXPECT_STATUS_CODE(StatusCode::kNotFound,
                     container.Populate(*engine, "absent"));
}

TEST(MetadataContainerTest, SnapshotIsSortedAndComplete) {
  MetadataContainer container;
  container.Register("c", 3);
  container.Register("a", 1);
  container.Register("b", 2);
  const auto snapshot = container.Snapshot();
  ASSERT_EQ(3u, snapshot.size());
  EXPECT_EQ("a", snapshot[0].name);
  EXPECT_EQ("b", snapshot[1].name);
  EXPECT_EQ("c", snapshot[2].name);
  EXPECT_EQ(2u, snapshot[1].size);
  EXPECT_TRUE(PfsOnly(*container.Lookup("a")));
}

TEST(FileInfoTest, FetchStateMachine) {
  FileInfo info("f", 10);
  EXPECT_TRUE(PfsOnly(info));

  ASSERT_TRUE(PublishFirstChunk(info, 10));
  EXPECT_TRUE(info.Placed()) << "its first run is published";
  EXPECT_FALSE(PfsOnly(info));
}

TEST(FileInfoTest, AbortFetchRestoresOrPoisons) {
  FileInfo transient("f", 10);
  ASSERT_TRUE(PublishFirstChunk(transient, 10));
  ASSERT_EQ(1u, transient.chunk_map()->TryEvictRun(0).chunks);
  EXPECT_TRUE(PfsOnly(transient))
      << "retryable once its last run is gone";

  FileInfo permanent("g", 10);
  permanent.Transition(FileInfo::kParked);
  EXPECT_TRUE(Parked(permanent));
  EXPECT_FALSE(PfsOnly(permanent));
}

TEST(FileInfoTest, ConcurrentClaimGrantsExactlyOne) {
  // Every thread gets the same chunk map, and exactly one of them the
  // claim on its chunk.
  for (int round = 0; round < 50; ++round) {
    FileInfo info("f", 10);
    std::atomic<int> winners{0};
    std::vector<pack::ChunkMap*> maps(8, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        maps[static_cast<std::size_t>(t)] = info.EnsureChunkMap(16);
        if (maps[static_cast<std::size_t>(t)]->TryClaim(0)) winners.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(1, winners.load());
    for (pack::ChunkMap* map : maps) EXPECT_EQ(info.chunk_map(), map);
  }
}

TEST(MetadataContainerTest, ConcurrentRegisterAndLookup) {
  MetadataContainer container;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&container, t] {
      for (int i = 0; i < 1000; ++i) {
        container.Register("f" + std::to_string(t) + "_" + std::to_string(i),
                           1);
        // Thread 0's files may not be registered yet; found, they are
        // whole.
        if (const FileInfoPtr info =
                container.Lookup("f0_" + std::to_string(i))) {
          EXPECT_EQ(1u, info->size);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(4000u, container.FileCount());
  EXPECT_EQ(4000u, container.TotalBytes());
}

}  // namespace
}  // namespace monarch::core

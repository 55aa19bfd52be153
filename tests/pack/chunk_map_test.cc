#include "pack/chunk_map.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace monarch::pack {
namespace {

TEST(ChunkMapTest, GeometryWithShortTail) {
  ChunkMap cm(/*file_bytes=*/1000, /*chunk_bytes=*/256);
  EXPECT_EQ(4u, cm.num_chunks());
  EXPECT_EQ(256u, cm.ChunkLogicalBytes(0));
  EXPECT_EQ(232u, cm.ChunkLogicalBytes(3)) << "tail chunk is short";
  EXPECT_EQ(0u, cm.ChunkOf(255));
  EXPECT_EQ(1u, cm.ChunkOf(256));
  EXPECT_EQ(768u, cm.ChunkOffset(3));
}

TEST(ChunkMapTest, ClaimPublishEvictLifecycle) {
  ChunkMap cm(1000, 256);
  ASSERT_TRUE(cm.TryClaim(1));
  EXPECT_FALSE(cm.TryClaim(1)) << "claims are exclusive";
  EXPECT_EQ(1u, cm.Claims());

  ChunkMap::ChunkMeta meta;
  meta.stored_bytes = 100;
  meta.crc_stored = 0xAB;
  meta.crc_logical = 0xCD;
  {
    std::lock_guard lock(cm.placement_mutex());
    EXPECT_EQ(0, cm.AssignTier(0));
    EXPECT_EQ(0u, cm.PublishRun(1, {&meta, 1}))
        << "the file's first resident run";
  }
  EXPECT_TRUE(cm.IsResident(1));
  EXPECT_EQ(0u, cm.Claims()) << "publish releases the claim";
  EXPECT_EQ(100u, cm.ResidentStoredBytes());
  EXPECT_EQ(256u, cm.ResidentLogicalBytes());
  EXPECT_EQ(0xABu, cm.Meta(1).crc_stored);
  EXPECT_FALSE(cm.TryClaim(1)) << "resident chunks cannot be claimed";

  {
    std::lock_guard lock(cm.placement_mutex());
    EXPECT_EQ(100u, cm.TryEvictRun(1).stored_bytes);
    EXPECT_EQ(0u, cm.TryEvictRun(1).chunks) << "double-evict loses the race";
    cm.MaybeResetTier();
  }
  EXPECT_FALSE(cm.IsResident(1));
  EXPECT_EQ(0u, cm.ResidentStoredBytes());
  EXPECT_EQ(-1, cm.tier()) << "tier resets once nothing is resident";
}

TEST(ChunkMapTest, RangeResident) {
  ChunkMap cm(1024, 256);
  EXPECT_TRUE(cm.RangeResident(0, 0)) << "empty ranges are trivially resident";
  EXPECT_FALSE(cm.RangeResident(0, 1));
  for (std::uint32_t c : {1u, 2u}) {
    ASSERT_TRUE(cm.TryClaim(c));
    const ChunkMap::ChunkMeta meta;
    std::lock_guard lock(cm.placement_mutex());
    cm.PublishRun(c, {&meta, 1});
  }
  EXPECT_TRUE(cm.RangeResident(256, 512));
  EXPECT_TRUE(cm.RangeResident(300, 100));
  EXPECT_FALSE(cm.RangeResident(0, 512)) << "chunk 0 is absent";
  EXPECT_FALSE(cm.RangeResident(700, 200)) << "chunk 3 is absent";
}

TEST(ChunkMapTest, TierStaysWhileClaimsOutstanding) {
  ChunkMap cm(512, 256);
  ASSERT_TRUE(cm.TryClaim(0));
  {
    std::lock_guard lock(cm.placement_mutex());
    EXPECT_EQ(1, cm.AssignTier(1));
    EXPECT_EQ(1, cm.AssignTier(0)) << "first assignment wins";
    cm.MaybeResetTier();
  }
  EXPECT_EQ(1, cm.tier()) << "an outstanding claim pins the tier";
  cm.ReleaseClaim(0);
  {
    std::lock_guard lock(cm.placement_mutex());
    cm.MaybeResetTier();
  }
  EXPECT_EQ(-1, cm.tier());
}

TEST(ChunkMapTest, RunsPublishAndDropAsAUnit) {
  ChunkMap cm(1000, 256);
  std::vector<ChunkMap::ChunkMeta> metas(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(cm.TryClaim(i + 1));
    metas[i].stored_bytes = 10 * (i + 1);
    metas[i].crc_logical = i;
  }
  ASSERT_TRUE(cm.TryClaim(0));
  ChunkMap::ChunkMeta lone;
  lone.stored_bytes = 7;
  {
    std::lock_guard lock(cm.placement_mutex());
    EXPECT_EQ(0u, cm.PublishRun(1, metas));
    EXPECT_EQ(3u, cm.PublishRun(0, {&lone, 1}));
  }
  EXPECT_EQ(0u, cm.Claims());
  EXPECT_EQ(4u, cm.ResidentCount());
  EXPECT_EQ(67u, cm.ResidentStoredBytes());
  // Each chunk knows its run and where its bytes sit inside it.
  EXPECT_EQ(0u, cm.Meta(0).run_start);
  for (std::uint32_t c = 1; c <= 3; ++c) EXPECT_EQ(1u, cm.Meta(c).run_start);
  EXPECT_EQ(0u, cm.Meta(1).run_offset);
  EXPECT_EQ(10u, cm.Meta(2).run_offset);
  EXPECT_EQ(30u, cm.Meta(3).run_offset);
  EXPECT_EQ(2u, cm.Meta(3).crc_logical);

  // Dropping any chunk of a run drops the whole run, and only it.
  ChunkMap::EvictedRun run;
  {
    std::lock_guard lock(cm.placement_mutex());
    run = cm.TryEvictRun(2);
  }
  EXPECT_EQ(1u, run.start);
  EXPECT_EQ(3u, run.chunks);
  EXPECT_EQ(60u, run.stored_bytes);
  EXPECT_TRUE(cm.IsResident(0));
  for (std::uint32_t c = 1; c <= 3; ++c) EXPECT_FALSE(cm.IsResident(c));
  EXPECT_EQ(1u, cm.ResidentCount());
  EXPECT_EQ(7u, cm.ResidentStoredBytes());
  EXPECT_EQ(256u, cm.ResidentLogicalBytes());
}

TEST(ChunkMapTest, ConcurrentClaimersGetDisjointChunks) {
  constexpr std::uint32_t kChunks = 256;
  ChunkMap cm(kChunks * 64, 64);
  std::atomic<std::uint32_t> claimed{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      std::uint32_t mine = 0;
      for (std::uint32_t c = 0; c < kChunks; ++c) {
        if (cm.TryClaim(c)) ++mine;
      }
      claimed.fetch_add(mine);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(kChunks, claimed.load())
      << "every chunk must be claimed exactly once across racing claimers";
  EXPECT_EQ(kChunks, cm.Claims());
}

TEST(ChunkMapTest, ConcurrentPublishersAndReaders) {
  constexpr std::uint32_t kChunks = 128;
  ChunkMap cm(kChunks * 32, 32);
  std::thread publisher([&] {
    for (std::uint32_t c = 0; c < kChunks; ++c) {
      ASSERT_TRUE(cm.TryClaim(c));
      ChunkMap::ChunkMeta meta;
      meta.stored_bytes = c + 1;
      meta.crc_stored = c;
      meta.crc_logical = ~c;
      std::lock_guard lock(cm.placement_mutex());
      cm.AssignTier(0);
      cm.PublishRun(c, {&meta, 1});
    }
  });
  std::thread reader([&] {
    // A resident bit must imply coherent meta (publish-release ordering).
    for (int pass = 0; pass < 64; ++pass) {
      for (std::uint32_t c = 0; c < kChunks; ++c) {
        if (cm.IsResident(c)) {
          const ChunkMap::ChunkMeta meta = cm.Meta(c);
          ASSERT_EQ(c + 1, meta.stored_bytes);
          ASSERT_EQ(c, meta.crc_stored);
        }
      }
    }
  });
  publisher.join();
  reader.join();
  EXPECT_EQ(kChunks, cm.ResidentCount());
}

}  // namespace
}  // namespace monarch::pack

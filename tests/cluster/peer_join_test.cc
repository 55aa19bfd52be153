// Cluster joins: a non-owner about to read a cold file from the PFS asks
// the file's owner to stage it, waits for that copy through the
// directory, and reads it over the peer rung — so each file crosses the
// PFS once cluster-wide. Every node gets its own (identical) PFS engine
// so the PFS reads of each node can be told apart.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../gate_engine.h"
#include "../test_support.h"
#include "cluster/peer_group.h"
#include "core/monarch.h"
#include "pack/chunk_map.h"
#include "storage/faulty_engine.h"
#include "storage/memory_engine.h"

namespace monarch::cluster {
namespace {

using monarch::testing::GateEngine;
using storage::FaultyEngine;
using storage::MemoryEngine;

constexpr std::size_t kFileBytes = 4096;
constexpr int kFiles = 8;

std::string File(int i) { return "data/f" + std::to_string(i) + ".bin"; }

std::vector<std::byte> Payload(int index) {
  std::vector<std::byte> payload(kFileBytes);
  for (std::size_t b = 0; b < kFileBytes; ++b) {
    payload[b] = static_cast<std::byte>((b * 13 + index * 5) & 0xff);
  }
  return payload;
}

/// A file node `n` owns in a two-node cluster (ownership is a pure
/// function of the name and the membership).
int FileOwnedBy(int n) {
  const FileDirectory directory(2);
  for (int i = 0; i < kFiles; ++i) {
    if (directory.PrimaryOwner(File(i)) == n) return i;
  }
  return -1;
}

struct Node {
  std::shared_ptr<MemoryEngine> pfs;
  std::shared_ptr<FaultyEngine> faulty;
  std::shared_ptr<GateEngine> gate;
  /// Holds the PFS reads of the gated file (gate_pfs_reads only).
  std::shared_ptr<GateEngine> pfs_gate;
  std::unique_ptr<core::Monarch> monarch;
};

/// Two nodes sharing a PeerGroup. Node `gated_node`'s local tier holds
/// the first write of `gated_file` until released — or, with
/// `gate_pfs_reads`, its PFS holds every read of `gated_file`. With
/// `gated_lookahead` set, that node prefetches that far ahead through one
/// placement worker. `staging_chunk_bytes`, when set, is every node's
/// staging chunk.
struct JoinWorld {
  std::unique_ptr<PeerGroup> group;
  std::vector<Node> nodes;

  explicit JoinWorld(int gated_node = -1, const std::string& gated_file = "",
                     int gated_lookahead = 0,
                     std::uint64_t staging_chunk_bytes = 0,
                     bool gate_pfs_reads = false) {
    group = std::make_unique<PeerGroup>(2);
    nodes.resize(2);
    for (int n = 0; n < 2; ++n) {
      Node& node = nodes[static_cast<std::size_t>(n)];
      node.pfs = std::make_shared<MemoryEngine>("pfs" + std::to_string(n));
      for (int i = 0; i < kFiles; ++i) {
        EXPECT_TRUE(node.pfs->Write(File(i), Payload(i)).ok());
      }
      node.faulty = std::make_shared<FaultyEngine>(
          std::make_shared<MemoryEngine>("local" + std::to_string(n)),
          FaultyEngine::FaultSpec{});
      node.gate = std::make_shared<GateEngine>(
          n == gated_node && !gate_pfs_reads
              ? pack::ChunkObjectName(gated_file, 0)
              : std::string(),
          node.faulty);
      group->RegisterNode(n, node.gate);
      if (n == gated_node && gate_pfs_reads) {
        node.pfs_gate = std::make_shared<GateEngine>(gated_file, node.pfs,
                                                     /*gate_reads=*/true);
      }

      core::MonarchConfig config;
      config.cache_tiers.push_back(
          core::TierSpec{"local", node.gate, /*quota_bytes=*/1ull << 22});
      config.peer_tier =
          core::TierSpec{"peer", group->MakePeerEngine(n), /*quota_bytes=*/0};
      config.peer_view = group->MakePeerView(n);
      config.pfs = core::TierSpec{
          "pfs",
          node.pfs_gate != nullptr
              ? std::static_pointer_cast<storage::StorageEngine>(node.pfs_gate)
              : node.pfs,
          0};
      config.dataset_dir = "data";
      config.placement.num_threads = 2;
      if (staging_chunk_bytes > 0) {
        config.placement.staging_chunk_bytes = staging_chunk_bytes;
      }
      if (n == gated_node && gated_lookahead > 0) {
        config.placement.prefetch_lookahead = gated_lookahead;
        config.placement.num_threads = 1;
      }
      config.resilience.retry.max_attempts = 1;
      auto monarch = core::Monarch::Create(std::move(config));
      EXPECT_TRUE(monarch.ok()) << monarch.status().ToString();
      if (monarch.ok()) node.monarch = std::move(monarch).value();
    }
  }

  ~JoinWorld() {
    for (Node& node : nodes) {
      node.gate->ReleaseBlocked();
      if (node.pfs_gate != nullptr) node.pfs_gate->ReleaseBlocked();
    }
  }

  core::Monarch& monarch(int n) {
    return *nodes[static_cast<std::size_t>(n)].monarch;
  }

  [[nodiscard]] std::uint64_t PfsReadOps(int n) const {
    return nodes[static_cast<std::size_t>(n)].pfs->Stats().Snapshot().read_ops;
  }

  /// Read file `i` whole on node `n` and check its bytes.
  void ReadFile(int n, int i) {
    std::vector<std::byte> buf(kFileBytes);
    auto read = monarch(n).Read(File(i), 0, buf);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(kFileBytes, read.value());
    EXPECT_EQ(Payload(i), buf) << "node " << n << " read " << File(i);
  }
};

TEST(PeerJoinTest, NonOwnerColdReadTriggersOneOwnerCopyAndNoPfsRead) {
  const int file = FileOwnedBy(1);
  ASSERT_GE(file, 0);
  JoinWorld world;

  world.ReadFile(0, file);

  // The owner copied the file once; the non-owner waited for that copy
  // and read it over the fabric, never touching the PFS.
  EXPECT_EQ(0u, world.PfsReadOps(0));
  EXPECT_EQ(1u, world.PfsReadOps(1));
  const core::MonarchStats reader = world.monarch(0).Stats();
  const core::MonarchStats owner = world.monarch(1).Stats();
  const int peer = world.monarch(0).hierarchy().peer_level();
  EXPECT_EQ(0u, reader.pfs_reads());
  EXPECT_EQ(1u, reader.levels[static_cast<std::size_t>(peer)].reads);
  EXPECT_EQ(1u, reader.peer_copy_joins);
  EXPECT_EQ(0u, reader.placement.scheduled) << "a non-owner never stages";
  EXPECT_EQ(1u, owner.placement.scheduled);
  EXPECT_EQ(1u, owner.placement.completed);

  // Reading it again is a plain peer read: no second copy.
  world.ReadFile(0, file);
  EXPECT_EQ(1u, world.monarch(1).Stats().placement.scheduled);
  EXPECT_EQ(1u, world.PfsReadOps(1));
}

TEST(PeerJoinTest, MultiChunkFileServesOracleBytesOverThePeerRung) {
  // A file of two and a half staging chunks: its owner stages three run
  // objects, and the non-owner reads them over the peer rung — cold
  // through the owner's copy, then warm — one fetch per chunk, with the
  // oracle bytes in both lanes (the lease is one private copy).
  const int file = FileOwnedBy(1);
  ASSERT_GE(file, 0);
  JoinWorld world(/*gated_node=*/-1, "", 0,
                  /*staging_chunk_bytes=*/kFileBytes * 2 / 5);
  world.ReadFile(0, file);
  world.ReadFile(0, file);
  auto lease = world.monarch(0).ReadZeroCopy(File(file), 0);
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  EXPECT_FALSE(lease.value().zero_copy());
  EXPECT_EQ(Payload(file),
            std::vector<std::byte>(lease.value().data().begin(),
                                   lease.value().data().end()));

  const core::MonarchStats reader = world.monarch(0).Stats();
  const int peer = world.monarch(0).hierarchy().peer_level();
  EXPECT_EQ(0u, world.PfsReadOps(0));
  EXPECT_EQ(1u, reader.peer_copy_joins);
  EXPECT_EQ(3u, reader.levels[static_cast<std::size_t>(peer)].reads);
  EXPECT_EQ(3u + 3u + 3u, world.group->network()->transfers());
  EXPECT_EQ(3u, world.monarch(1).Stats().placement.chunks_copied);
}

TEST(PeerJoinTest, FailedOwnerCopyFallsBackToPfs) {
  const int file = FileOwnedBy(1);
  ASSERT_GE(file, 0);
  JoinWorld world;
  world.nodes[1].faulty->FailNextWrites(1);

  world.ReadFile(0, file);

  const core::MonarchStats reader = world.monarch(0).Stats();
  EXPECT_EQ(1u, reader.pfs_reads()) << "the failed copy sends the read on";
  EXPECT_EQ(0u, reader.peer_copy_joins);
  EXPECT_EQ(0u, reader.degraded_fallbacks);
  EXPECT_EQ(1u, world.monarch(1).Stats().placement.failed);
}

TEST(PeerJoinTest, OwnerKilledMidCopyWakesWaiterToPfs) {
  const int file = FileOwnedBy(1);
  ASSERT_GE(file, 0);
  JoinWorld world(/*gated_node=*/1, File(file));

  std::atomic<bool> done{false};
  std::thread reader([&] {
    world.ReadFile(0, file);
    done.store(true);
  });
  world.nodes[1].gate->AwaitBlocked();  // the owner's copy is in flight
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load()) << "the non-owner waits for the owner's copy";

  world.group->KillNode(1);  // the waiter wakes: its copier is not live
  reader.join();
  EXPECT_EQ(1u, world.monarch(0).Stats().pfs_reads());
  EXPECT_EQ(0u, world.monarch(0).Stats().peer_copy_joins);

  world.nodes[1].gate->ReleaseBlocked();
  world.monarch(1).DrainPlacements();
}

TEST(PeerJoinTest, OwnersColdReadClaimsFirstSoAPeerJoinsItsOneRead) {
  // The owner's cold offset-0 read of a slice claims the file before it
  // reads, and the gate holds that PFS read. The non-owner reads the same
  // file meanwhile: its stage request finds the claim, and it waits for
  // the owner's copy. The slice is donated to that copy, so the owner's
  // PFS reads the file's bytes exactly once.
  const int file = FileOwnedBy(1);
  ASSERT_GE(file, 0);
  JoinWorld world(/*gated_node=*/1, File(file), 0, 0,
                  /*gate_pfs_reads=*/true);
  const std::shared_ptr<GateEngine> gate = world.nodes[1].pfs_gate;

  std::thread owner([&] {
    std::vector<std::byte> slice(kFileBytes / 4);
    auto read = world.monarch(1).Read(File(file), 0, slice);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(slice.size(), read.value());
    const std::vector<std::byte> payload = Payload(file);
    EXPECT_TRUE(std::equal(slice.begin(), slice.end(), payload.begin()));
  });
  gate->AwaitBlocked();  // the owner's read is inside its PFS read
  std::thread reader([&] { world.ReadFile(0, file); });
  // Let the non-owner's stage request reach the owner before the owner's
  // read returns.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate->ReleaseBlocked();
  owner.join();
  reader.join();
  world.monarch(1).DrainPlacements();

  EXPECT_EQ(kFileBytes, world.nodes[1].pfs->Stats().Snapshot().bytes_read)
      << "the owner read the slice and its copy read it again";
  EXPECT_EQ(0u, world.PfsReadOps(0)) << "the non-owner never read the PFS";
  EXPECT_EQ(1u, world.monarch(0).Stats().peer_copy_joins);
  const core::MonarchStats owner_stats = world.monarch(1).Stats();
  EXPECT_EQ(1u, owner_stats.placement.scheduled);
  EXPECT_EQ(kFileBytes / 4, owner_stats.placement.donated_bytes);
}

TEST(PeerJoinTest, StageRequestPromotesOwnersQueuedPrefetch) {
  // Two files node 1 owns: its single worker blocks inside the copy of
  // the first, so look-ahead leaves the second queued as a prefetch.
  std::vector<int> owned;
  {
    const FileDirectory directory(2);
    for (int i = 0; i < kFiles; ++i) {
      if (directory.PrimaryOwner(File(i)) == 1) owned.push_back(i);
    }
  }
  ASSERT_GE(owned.size(), 2u);
  const int blocker = owned[0];
  const int target = owned[1];
  JoinWorld world(/*gated_node=*/1, File(blocker), /*gated_lookahead=*/2);
  world.monarch(1).InstallRunSchedule({{File(blocker), File(target)}});
  world.nodes[1].gate->AwaitBlocked();

  // Node 0's stage request promotes the queued prefetch to a joinable
  // demand copy, and the read waits for it instead of reading the PFS.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    world.ReadFile(0, target);
    done.store(true);
  });
  while (!done.load() &&
         world.monarch(1).Stats().placement.prefetch_promoted == 0) {
    std::this_thread::yield();
  }
  world.nodes[1].gate->ReleaseBlocked();
  reader.join();
  world.monarch(1).DrainPlacements();

  EXPECT_EQ(1u, world.monarch(1).Stats().placement.prefetch_promoted);
  EXPECT_EQ(0u, world.PfsReadOps(0)) << "the non-owner never read the PFS";
  EXPECT_EQ(1u, world.monarch(0).Stats().peer_copy_joins);
}

TEST(PeerJoinTest, OwnerStagingForPeerReconcilesWithPfsTraffic) {
  JoinWorld world;
  // Node 0 reads the whole dataset cold, then node 1 does: node 1 stages
  // its shard on node 0's behalf before it ever reads it.
  for (int n = 0; n < 2; ++n) {
    for (int i = 0; i < kFiles; ++i) world.ReadFile(n, i);
    world.monarch(n).DrainPlacements();
  }
  std::uint64_t total_ops = 0;
  for (int n = 0; n < 2; ++n) {
    const core::MonarchStats stats = world.monarch(n).Stats();
    const auto pfs = world.nodes[static_cast<std::size_t>(n)]
                         .pfs->Stats()
                         .Snapshot();
    // Everything a node pulled from the PFS is a demand read served by
    // its PFS level or a staging copy, less the bytes donated by reads.
    EXPECT_EQ(pfs.bytes_read, stats.levels.back().bytes +
                                  stats.placement.bytes_staged -
                                  stats.placement.donated_bytes)
        << "node " << n;
    EXPECT_EQ(0u, stats.degraded_fallbacks) << "node " << n;
    total_ops += pfs.read_ops;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(kFiles), total_ops)
      << "each file crossed the PFS once cluster-wide";
}

}  // namespace
}  // namespace monarch::cluster

// ISSUE 7 churn suite: versioned membership, replica failover, and
// replication repair. Three layers, mirroring the tentpole:
//
//   * MembershipTest — the FileDirectory's transition algebra: a down/
//     join moves only ~1/N of the namespace (consistent hashing), the
//     repair set it returns is exactly the ownership it moved, and a
//     downed node's advertisements vanish from every reader atomically.
//   * MembershipStressTest — MarkEvicted/MarkPlaced racing NodeDown/
//     NodeUp retraction scans. Run under check.sh's TSan leg (filter
//     `Membership*`); assertions pin only interleaving-proof invariants.
//   * RestageTest / ChurnIntegrationTest — a membership change hands
//     each repair pair to its new owner's stage entry once, on the
//     prefetch lane, and a real 3-node Monarch cluster survives
//     kill -> repair -> rejoin with golden bytes end to end and the
//     replication factor restored.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "../test_support.h"
#include "cluster/file_directory.h"
#include "cluster/peer_group.h"
#include "core/monarch.h"
#include "obs/metrics_registry.h"
#include "pack/chunk_map.h"
#include "storage/memory_engine.h"

namespace monarch::cluster {
namespace {

using storage::MemoryEngine;

std::string File(int i) { return "data/f" + std::to_string(i) + ".bin"; }

/// Owner sets of every file under the directory's current membership.
std::vector<std::vector<int>> OwnerMap(const FileDirectory& directory,
                                       int files) {
  std::vector<std::vector<int>> owners;
  owners.reserve(static_cast<std::size_t>(files));
  for (int i = 0; i < files; ++i) owners.push_back(directory.OwnerNodes(File(i)));
  return owners;
}

TEST(MembershipTest, NodeDownMovesOnlyTheVictimsShard) {
  constexpr int kNodes = 8;
  constexpr int kFiles = 256;
  FileDirectory directory(kNodes);
  for (int i = 0; i < kFiles; ++i) {
    directory.MarkPlaced(File(i), directory.PrimaryOwner(File(i)), 0);
  }
  const auto before = OwnerMap(directory, kFiles);
  std::uint64_t victim_owned = 0;
  for (int i = 0; i < kFiles; ++i) {
    if (before[static_cast<std::size_t>(i)].front() == 3) ++victim_owned;
  }
  ASSERT_GT(victim_owned, 0u);

  const MembershipDelta delta = directory.NodeDown(3);
  ASSERT_TRUE(delta.applied);
  EXPECT_EQ(2u, delta.version);
  EXPECT_EQ(delta.version, directory.membership_version());
  EXPECT_EQ(kNodes - 1, directory.live_nodes());
  EXPECT_EQ(NodeState::kDown, directory.StateOf(3));

  // Exactly the victim's shard changed hands; every other file kept its
  // owner (the consistent-hashing contract — no full reshuffle).
  EXPECT_EQ(victim_owned, delta.files_reowned);
  EXPECT_EQ(victim_owned, delta.repair.size());
  const auto after = OwnerMap(directory, kFiles);
  for (int i = 0; i < kFiles; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (before[idx].front() != 3) {
      EXPECT_EQ(before[idx], after[idx]) << File(i) << " re-owned needlessly";
    } else {
      EXPECT_NE(3, after[idx].front());
    }
  }

  // The node that inherited each orphaned file got its repair pair, once.
  std::set<std::string> repaired;
  for (const auto& [node, name] : delta.repair) {
    EXPECT_TRUE(repaired.insert(name).second) << name << " repaired twice";
    EXPECT_EQ(node, directory.PrimaryOwner(name)) << name;
    EXPECT_NE(3, node);
  }
  for (int i = 0; i < kFiles; ++i) {
    EXPECT_EQ(before[static_cast<std::size_t>(i)].front() == 3,
              repaired.count(File(i)) == 1)
        << File(i);
  }
}

TEST(MembershipTest, NodeJoinHandsTheJoinerItsShard) {
  constexpr int kFiles = 128;
  FileDirectory directory(4, /*replication=*/1, /*shards=*/16,
                          /*deferred_nodes=*/{3});
  EXPECT_EQ(NodeState::kAbsent, directory.StateOf(3));
  EXPECT_EQ(3, directory.live_nodes());
  for (int i = 0; i < kFiles; ++i) {
    const int owner = directory.PrimaryOwner(File(i));
    EXPECT_NE(3, owner) << "absent node owns " << File(i);
    directory.MarkPlaced(File(i), owner, 0);
  }

  const MembershipDelta delta = directory.NodeJoin(3);
  ASSERT_TRUE(delta.applied);
  EXPECT_EQ(4, directory.live_nodes());
  EXPECT_EQ(NodeState::kUp, directory.StateOf(3));

  // ~1/N of the namespace moved to the joiner, and every moved file is
  // in the repair set for the joiner (and only the joiner).
  std::uint64_t joiner_owned = 0;
  for (int i = 0; i < kFiles; ++i) {
    if (directory.PrimaryOwner(File(i)) == 3) ++joiner_owned;
  }
  EXPECT_GT(joiner_owned, 0u);
  EXPECT_LT(joiner_owned, static_cast<std::uint64_t>(kFiles) / 2);
  EXPECT_EQ(delta.files_reowned, joiner_owned);
  EXPECT_EQ(joiner_owned, delta.repair.size());
  for (const auto& [node, name] : delta.repair) {
    EXPECT_EQ(3, node) << name;
    EXPECT_TRUE(directory.IsOwner(name, 3)) << name;
  }
}

TEST(MembershipTest, DownNodeAdvertisementsVanishAtomically) {
  FileDirectory directory(3, /*replication=*/2);
  directory.MarkPlaced(File(0), 0, 0);
  directory.MarkPlaced(File(0), 1, 0);
  ASSERT_EQ(2u, directory.PlacedHolders(File(0), 2).size());

  ASSERT_TRUE(directory.NodeDown(1).applied);
  // Readers never see the ghost: holder resolution skips the down node
  // the instant the snapshot swaps, regardless of the map scan.
  const auto holders = directory.PlacedHolders(File(0), 2);
  ASSERT_EQ(1u, holders.size());
  EXPECT_EQ(0, holders.front());

  // A revived node re-advertises itself (Monarch::ReadvertisePlacedCopies)
  // — the directory does not resurrect retracted ads on NodeUp.
  ASSERT_TRUE(directory.NodeUp(1).applied);
  EXPECT_EQ(1u, directory.PlacedHolders(File(0), 2).size());
  directory.MarkPlaced(File(0), 1, 0);
  EXPECT_EQ(2u, directory.PlacedHolders(File(0), 2).size());
}

TEST(MembershipTest, InvalidTransitionsAreRejectedNoOps) {
  FileDirectory directory(3, /*replication=*/1, /*shards=*/16,
                          /*deferred_nodes=*/{2});
  const std::uint64_t v0 = directory.membership_version();
  EXPECT_FALSE(directory.NodeUp(0).applied);    // already up
  EXPECT_FALSE(directory.NodeJoin(0).applied);  // not deferred
  EXPECT_FALSE(directory.NodeUp(2).applied);    // absent joins, not ups
  EXPECT_FALSE(directory.NodeDown(-1).applied);
  EXPECT_FALSE(directory.NodeDown(99).applied);
  ASSERT_TRUE(directory.NodeDown(1).applied);
  EXPECT_FALSE(directory.NodeDown(1).applied);  // already down
  EXPECT_EQ(v0 + 1, directory.membership_version());
}

// TSan stress: placement threads publish/evict while a churn thread
// flips the same node down and up. The retraction scan races MarkEvicted
// on the same rows and holder lookups race the snapshot swap — any
// outcome is fine, but no lookup may ever return a node while it is
// down, and the quiesced count must reconcile.
TEST(MembershipStressTest, MarkEvictedRacesRetractionScan) {
  constexpr int kNodes = 4;
  constexpr int kFiles = 48;
  constexpr int kRounds = 120;
  FileDirectory directory(kNodes, /*replication=*/2, /*shards=*/8);
  for (int i = 0; i < kFiles; ++i) {
    for (const int owner : directory.OwnerNodes(File(i))) {
      directory.MarkPlaced(File(i), owner, 0);
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Churn thread: node 1 bounces for the whole run.
  threads.emplace_back([&directory, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)directory.NodeDown(1);
      (void)directory.NodeUp(1);
    }
  });
  // Placement threads: every node churns its shard's ads, including the
  // bouncing node re-advertising mid-retraction.
  for (int node = 0; node < kNodes; ++node) {
    threads.emplace_back([&directory, node] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kFiles; ++i) {
          directory.MarkPlaced(File(i), node, 0);
          if ((round + i) % 2 == 0) directory.MarkEvicted(File(i), node);
        }
      }
    });
  }
  // Reader thread: resolved holders must be live at resolution time.
  threads.emplace_back([&directory, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      for (int i = 0; i < kFiles; ++i) {
        for (const int holder : directory.PlacedHolders(File(i), 0)) {
          EXPECT_NE(0, holder);
          EXPECT_GE(holder, 0);
          EXPECT_LT(holder, directory.num_nodes());
        }
        (void)directory.CheckReplication();
      }
    }
  });

  for (std::size_t t = 1; t <= kNodes; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads.front().join();
  threads.back().join();

  // Quiesce with node 1 up; re-place everything and the books balance.
  if (!directory.IsLive(1)) (void)directory.NodeUp(1);
  std::uint64_t placed = 0;
  for (int i = 0; i < kFiles; ++i) {
    for (int n = 0; n < kNodes; ++n) directory.MarkPlaced(File(i), n, 0);
  }
  for (int n = 0; n < kNodes; ++n) placed += directory.StatsFor(n).placed;
  EXPECT_EQ(static_cast<std::uint64_t>(kFiles) * kNodes, placed);
  EXPECT_EQ(placed, directory.placed_copies());
  EXPECT_EQ(static_cast<std::uint64_t>(kFiles), directory.entries());
}

/// One stage entry call: which node's entry, for what, on which lane.
struct StageCall {
  int node;
  std::string name;
  core::StagingLane lane;
};

/// Installs a stage entry on every node of `group` that records its
/// calls and returns `bytes` (0 declines every copy). Repair runs the
/// entries on the thread that changes membership.
void RecordStageCalls(PeerGroup& group, std::uint64_t bytes,
                      std::vector<StageCall>& calls) {
  for (int n = 0; n < group.num_nodes(); ++n) {
    group.SetStageEntry(n, [n, bytes, &calls](const std::string& name,
                                              core::StagingLane lane) {
      calls.push_back(StageCall{n, name, lane});
      return bytes;
    });
  }
}

TEST(RestageTest, KillNodeHandsEachRepairToItsNewOwnerOnce) {
  constexpr int kNodes = 3;
  constexpr int kFiles = 96;
  PeerGroup group(kNodes);
  FileDirectory& directory = group.directory();
  for (int i = 0; i < kFiles; ++i) {
    directory.MarkPlaced(File(i), directory.PrimaryOwner(File(i)), 0);
  }
  std::vector<StageCall> calls;
  RecordStageCalls(group, /*bytes=*/4096, calls);
  obs::Counter* bytes = obs::MetricsRegistry::Global().GetCounter(
      "cluster.restage.bytes", "bytes", "");
  const std::uint64_t bytes_before = bytes->Value();

  // The kill returns with every repair already handed over: no queue is
  // left to drain.
  const MembershipDelta delta = group.KillNode(2);
  ASSERT_TRUE(delta.applied);
  ASSERT_GT(delta.repair.size(), 0u);
  EXPECT_EQ(delta.repair.size(), calls.size());
  std::set<std::string> distinct;
  for (const StageCall& call : calls) {
    EXPECT_TRUE(distinct.insert(call.name).second) << call.name;
    EXPECT_EQ(core::StagingLane::kPrefetch, call.lane) << call.name;
    EXPECT_EQ(directory.PrimaryOwner(call.name), call.node) << call.name;
    EXPECT_NE(2, call.node);
  }
  EXPECT_EQ(delta.repair.size(), group.restage_enqueued());
  EXPECT_EQ(delta.repair.size(), group.restage_completed());
  EXPECT_EQ(delta.repair.size() * 4096, bytes->Value() - bytes_before);
}

TEST(RestageTest, StaleTasksAreSkippedNotCounted) {
  PeerGroup group(2);
  FileDirectory& directory = group.directory();
  for (int i = 0; i < 8; ++i) {
    directory.MarkPlaced(File(i), directory.PrimaryOwner(File(i)), 0);
  }
  // Entries that decline everything (file already placed / ownership
  // moved on): every pair is handed over, none is booked as a repair.
  std::vector<StageCall> calls;
  RecordStageCalls(group, /*bytes=*/0, calls);
  const MembershipDelta delta = group.KillNode(1);
  ASSERT_TRUE(delta.applied);
  ASSERT_GT(delta.repair.size(), 0u);
  EXPECT_EQ(delta.repair.size(), calls.size());
  EXPECT_EQ(delta.repair.size(), group.restage_enqueued());
  EXPECT_EQ(0u, group.restage_completed());
}

// ---------------------------------------------------------------------------
// Integration: a real 3-node Monarch cluster (replication 2) survives
// kill -> repair -> rejoin. Golden bytes at every step, replication
// restored at the end, and the failure accounting reconciles.

constexpr std::size_t kIntFileBytes = 4096;
constexpr int kIntFiles = 24;

std::vector<std::byte> GoldenPayload(int index) {
  std::vector<std::byte> payload(kIntFileBytes);
  for (std::size_t b = 0; b < kIntFileBytes; ++b) {
    payload[b] = static_cast<std::byte>((b * 31 + index * 7) & 0xff);
  }
  return payload;
}

struct ChurnWorld {
  std::shared_ptr<MemoryEngine> pfs;
  std::unique_ptr<PeerGroup> group;
  std::vector<std::shared_ptr<MemoryEngine>> locals;
  std::vector<std::unique_ptr<core::Monarch>> nodes;

  explicit ChurnWorld(int num_nodes, int replication) {
    pfs = std::make_shared<MemoryEngine>("pfs");
    for (int i = 0; i < kIntFiles; ++i) {
      EXPECT_TRUE(pfs->Write(File(i), GoldenPayload(i)).ok());
    }
    PeerOptions options;
    options.replication = replication;
    group = std::make_unique<PeerGroup>(num_nodes, options);
    for (int n = 0; n < num_nodes; ++n) {
      locals.push_back(
          std::make_shared<MemoryEngine>("local" + std::to_string(n)));
      group->RegisterNode(n, locals.back());
      core::MonarchConfig config;
      config.cache_tiers.push_back(
          core::TierSpec{"local", locals.back(), /*quota_bytes=*/1ull << 22});
      config.peer_tier =
          core::TierSpec{"peer", group->MakePeerEngine(n), /*quota_bytes=*/0};
      config.peer_view = group->MakePeerView(n);
      config.pfs = core::TierSpec{"pfs", pfs, 0};
      config.dataset_dir = "data";
      auto monarch = core::Monarch::Create(std::move(config));
      EXPECT_TRUE(monarch.ok()) << monarch.status().ToString();
      nodes.push_back(std::move(monarch).value());
    }
  }

  void ReadAll(int node) {
    std::vector<std::byte> buf(kIntFileBytes);
    for (int i = 0; i < kIntFiles; ++i) {
      auto read = nodes[static_cast<std::size_t>(node)]->Read(File(i), 0, buf);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      ASSERT_EQ(kIntFileBytes, read.value());
      ASSERT_EQ(GoldenPayload(i),
                std::vector<std::byte>(buf.begin(), buf.end()))
          << "node " << node << " read wrong bytes for " << File(i);
    }
  }

  void WarmUp() {
    // Two passes: the first stages each primary's shard, the second lets
    // the secondary owners stage their replicas off peer-served reads.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t n = 0; n < nodes.size(); ++n) {
        ReadAll(static_cast<int>(n));
        nodes[n]->DrainPlacements();
      }
    }
  }

  /// Finish the repair copies the last membership change handed to the
  /// live nodes' staging queues.
  void Repair() {
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      if (group->directory().IsLive(static_cast<int>(n))) {
        nodes[n]->DrainPlacements();
      }
    }
  }
};

TEST(ChurnIntegrationTest, OwnersPeerServedReadStagesItsReplica) {
  // Two nodes, replication 2: both own every file. Node 1 reads a file
  // node 0 staged, over the peer rung — and still stages its own replica,
  // from the bytes the read donated, without touching the PFS.
  ChurnWorld world(2, /*replication=*/2);
  ASSERT_EQ(2u, world.nodes.size());
  std::vector<std::byte> buf(kIntFileBytes);
  ASSERT_OK(world.nodes[0]->Read(File(0), 0, buf));
  world.nodes[0]->DrainPlacements();
  const std::uint64_t pfs_ops = world.pfs->Stats().Snapshot().read_ops;

  ASSERT_OK(world.nodes[1]->Read(File(0), 0, buf));
  EXPECT_EQ(GoldenPayload(0), buf);
  world.nodes[1]->DrainPlacements();
  const core::MonarchStats stats = world.nodes[1]->Stats();
  const int peer = world.nodes[1]->hierarchy().peer_level();
  EXPECT_EQ(1u, stats.levels[static_cast<std::size_t>(peer)].reads);
  EXPECT_EQ(1u, stats.placement.completed) << "the replica was staged";
  EXPECT_TRUE(world.locals[1]->Exists(pack::ChunkObjectName(File(0), 0))
                  .value_or(false));
  EXPECT_EQ(pfs_ops, world.pfs->Stats().Snapshot().read_ops);
  EXPECT_EQ(2u, world.group->directory().PlacedHolders(File(0), -1).size());
}

TEST(ChurnIntegrationTest, KillRepairRejoinRestoresReplication) {
  ChurnWorld world(3, /*replication=*/2);
  ASSERT_EQ(3u, world.nodes.size());
  world.WarmUp();

  // Replicated steady state: every file has 2 live copies.
  ReplicationHealth health = world.group->directory().CheckReplication();
  EXPECT_EQ(static_cast<std::uint64_t>(kIntFiles), health.files);
  EXPECT_EQ(0u, health.below_target);
  EXPECT_EQ(0u, health.unhosted);

  // Kill node 2. Ads retract, ownership shifts, and the kill hands every
  // file it left below target to a survivor's prefetch lane before it
  // returns (the staging workers may already be copying them, so the
  // degraded health in between is not observable here).
  const MembershipDelta down = world.group->KillNode(2);
  ASSERT_TRUE(down.applied);
  EXPECT_EQ(2, world.group->directory().live_nodes());
  ASSERT_FALSE(down.repair.empty());
  EXPECT_EQ(down.repair.size(), world.group->restage_enqueued());
  health = world.group->directory().CheckReplication();
  EXPECT_EQ(0u, health.unhosted) << "replication 2 must survive one loss";

  // Repair: survivors re-stage what the victim owned until the books
  // say the (2-node) cluster is back at target.
  world.Repair();
  health = world.group->directory().CheckReplication();
  EXPECT_EQ(0u, health.below_target);
  // Accounting: some pairs were stale (the survivor already held a
  // copy), the rest claimed real repair copies — never more than handed
  // over.
  EXPECT_GT(world.group->restage_completed(), 0u);
  EXPECT_LE(world.group->restage_completed(),
            world.group->restage_enqueued());

  // Mid-outage epoch on the survivors: golden bytes, zero app errors —
  // the repaired replicas serve everything, the PFS stays untouched.
  const auto pfs_before = world.pfs->Stats().Snapshot();
  world.ReadAll(0);
  world.ReadAll(1);
  EXPECT_EQ(0u, (world.pfs->Stats().Snapshot() - pfs_before).read_ops);

  // Rejoin: the victim re-advertises its surviving copies FIRST, so the
  // rejoin delta skips repairing what it still holds.
  const std::uint64_t readvertised = world.nodes[2]->ReadvertisePlacedCopies();
  EXPECT_GT(readvertised, 0u);
  const MembershipDelta up = world.group->ReviveNode(2);
  ASSERT_TRUE(up.applied);
  EXPECT_EQ(3, world.group->directory().live_nodes());
  world.Repair();

  // Full strength: 3 live nodes, replication 2, nothing below target,
  // and the rejoined node serves golden bytes again.
  health = world.group->directory().CheckReplication();
  EXPECT_EQ(0u, health.below_target);
  EXPECT_EQ(0u, health.unhosted);
  world.ReadAll(2);
  // Atomic retraction means no survivor ever dialed the ghost: the whole
  // kill/repair/rejoin cycle ran without a single degradation fallback.
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(0u, world.nodes[static_cast<std::size_t>(n)]
                      ->Stats()
                      .degraded_fallbacks)
        << "node " << n;
  }
}

// Replica failover end to end through Monarch: with replication 2 the
// reader rescues a non-owned read from the second holder when the first
// dies between resolution windows, without surfacing anything.
TEST(ChurnIntegrationTest, ReplicaFailoverCoversDeadHolder) {
  ChurnWorld world(3, /*replication=*/2);
  world.WarmUp();

  // Fail node 1 on the FABRIC ONLY — the directory still advertises it
  // (the detection-lag window the failover rung exists for).
  world.group->network()->SetNodeDown(1, true);
  const std::uint64_t timeouts_before = world.group->network()->rpc_timeouts();

  std::vector<std::byte> buf(kIntFileBytes);
  std::uint64_t cross_reads = 0;
  for (int i = 0; i < kIntFiles; ++i) {
    // Reads from node 0 of files node 0 does not hold locally must be
    // rescued by the other live holder or the PFS — never an error.
    if (world.group->directory().IsOwner(File(i), 0)) continue;
    ++cross_reads;
    auto read = world.nodes[0]->Read(File(i), 0, buf);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(GoldenPayload(i), std::vector<std::byte>(buf.begin(), buf.end()));
  }
  ASSERT_GT(cross_reads, 0u);
  // At least one read dialed the dead holder first and paid the modelled
  // timeout before failing over (quarantine then shields the rest).
  EXPECT_GT(world.group->network()->rpc_timeouts(), timeouts_before);
  // Every rescue stayed inside the peer tier — the second live holder
  // covered the dead one, so the degradation ladder never fired.
  EXPECT_EQ(0u, world.nodes[0]->Stats().degraded_fallbacks);

  world.group->network()->SetNodeDown(1, false);
}

}  // namespace
}  // namespace monarch::cluster

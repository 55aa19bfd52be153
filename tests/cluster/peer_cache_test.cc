// ISSUE 4 integration suite: cooperative peer caching end to end. Every
// test builds a small cluster of real Monarch instances over one shared
// in-memory PFS, wired together by a PeerGroup, and asserts the
// tentpole's contract: each node stages only its shard, demand reads of
// non-owned files are served owner-first over the simulated fabric, and
// every peer failure degrades to the PFS without the caller noticing —
// with the absorbed fault visible in the stats (the discipline of
// tests/core/resilience_test.cc, applied to the peer rung).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
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

using storage::FaultyEngine;
using storage::MemoryEngine;

constexpr std::size_t kFileBytes = 4096;
constexpr int kFiles = 16;

std::string File(int i) { return "data/f" + std::to_string(i) + ".bin"; }

std::vector<std::byte> GoldenPayload(int index,
                                     std::size_t bytes = kFileBytes) {
  std::vector<std::byte> payload(bytes);
  for (std::size_t b = 0; b < bytes; ++b) {
    payload[b] = static_cast<std::byte>((b * 31 + index * 7) & 0xff);
  }
  return payload;
}

/// One cluster member: a clean-by-default FaultyEngine local tier (tests
/// inject owner-side faults through it) over an inspectable MemoryEngine.
struct Node {
  std::shared_ptr<MemoryEngine> local_inner;
  std::shared_ptr<FaultyEngine> local;
  std::unique_ptr<core::Monarch> monarch;
};

struct PeerWorld {
  std::size_t file_bytes;
  std::shared_ptr<MemoryEngine> pfs;
  std::unique_ptr<PeerGroup> group;
  std::vector<Node> nodes;

  /// `chunk_bytes` is the staging chunk, and so the largest run object
  /// a peer serves; `buffer_bytes` the staging-memory budget (0 keeps
  /// either default); `configure` edits every node's config last.
  explicit PeerWorld(
      int num_nodes, std::size_t bytes = kFileBytes, PeerOptions options = {},
      std::uint64_t chunk_bytes = 0, std::uint64_t buffer_bytes = 0,
      const std::function<void(core::MonarchConfig&)>& configure = nullptr)
      : file_bytes(bytes) {
    pfs = std::make_shared<MemoryEngine>("pfs");
    for (int i = 0; i < kFiles; ++i) {
      EXPECT_TRUE(pfs->Write(File(i), GoldenPayload(i, bytes)).ok());
    }
    group = std::make_unique<PeerGroup>(num_nodes, std::move(options));
    nodes.resize(static_cast<std::size_t>(num_nodes));
    for (int n = 0; n < num_nodes; ++n) {
      Node& node = nodes[static_cast<std::size_t>(n)];
      node.local_inner =
          std::make_shared<MemoryEngine>("local" + std::to_string(n));
      node.local = std::make_shared<FaultyEngine>(node.local_inner,
                                                  FaultyEngine::FaultSpec{});
      group->RegisterNode(n, node.local);

      core::MonarchConfig config;
      config.cache_tiers.push_back(
          core::TierSpec{"local", node.local, /*quota_bytes=*/1ull << 22});
      config.peer_tier =
          core::TierSpec{"peer", group->MakePeerEngine(n), /*quota_bytes=*/0};
      config.peer_view = group->MakePeerView(n);
      config.pfs = core::TierSpec{"pfs", pfs, 0};
      config.dataset_dir = "data";
      if (chunk_bytes > 0) config.placement.staging_chunk_bytes = chunk_bytes;
      if (buffer_bytes > 0) {
        config.placement.staging_buffer_bytes = buffer_bytes;
      }
      if (configure) configure(config);
      auto monarch = core::Monarch::Create(std::move(config));
      EXPECT_TRUE(monarch.ok()) << monarch.status().ToString();
      if (monarch.ok()) node.monarch = std::move(monarch).value();
    }
  }

  /// One full epoch on `node`: read every file, assert golden bytes.
  void ReadAll(int node) {
    std::vector<std::byte> buf(file_bytes);
    for (int i = 0; i < kFiles; ++i) {
      auto read = nodes[static_cast<std::size_t>(node)].monarch->Read(
          File(i), 0, buf);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      ASSERT_EQ(file_bytes, read.value());
      ASSERT_EQ(GoldenPayload(i, file_bytes),
                std::vector<std::byte>(buf.begin(), buf.end()))
          << "node " << node << " read wrong bytes for " << File(i);
    }
  }

  /// Epoch 1, node by node (deterministic placement interleaving): each
  /// node reads the whole dataset and drains its background staging.
  void WarmUp() {
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      ReadAll(static_cast<int>(n));
      nodes[n].monarch->DrainPlacements();
    }
  }

  [[nodiscard]] std::uint64_t OwnedCount(int node) const {
    std::uint64_t owned = 0;
    for (int i = 0; i < kFiles; ++i) {
      if (group->directory().PrimaryOwner(File(i)) == node) ++owned;
    }
    return owned;
  }

  /// `count` slices of `slice` bytes of file `i` on `node`, from byte
  /// `offset` on, each checked against the golden bytes.
  void ReadSlices(int node, int i, std::uint64_t offset, int count,
                  std::size_t slice) {
    const std::vector<std::byte> golden = GoldenPayload(i, file_bytes);
    std::vector<std::byte> buf(slice);
    for (int k = 0; k < count; ++k, offset += slice) {
      auto read = nodes[static_cast<std::size_t>(node)].monarch->Read(
          File(i), offset, buf);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
          slice, golden.size() - std::min<std::uint64_t>(offset,
                                                         golden.size())));
      ASSERT_EQ(n, read.value()) << File(i) << " @" << offset;
      ASSERT_TRUE(std::equal(buf.begin(),
                             buf.begin() + static_cast<std::ptrdiff_t>(n),
                             golden.begin() +
                                 static_cast<std::ptrdiff_t>(offset)))
          << "node " << node << " read wrong bytes for " << File(i) << " @"
          << offset;
    }
  }

  /// Files whose primary owner is `node`, in index order.
  [[nodiscard]] std::vector<int> OwnedFiles(int node) const {
    std::vector<int> owned;
    for (int i = 0; i < kFiles; ++i) {
      if (group->directory().PrimaryOwner(File(i)) == node) owned.push_back(i);
    }
    return owned;
  }
};

TEST(PeerCacheTest, ShardedStagingServesSteadyStateWithoutPfs) {
  PeerWorld world(2);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  const std::uint64_t owned0 = world.OwnedCount(0);
  const std::uint64_t owned1 = world.OwnedCount(1);
  ASSERT_EQ(static_cast<std::uint64_t>(kFiles), owned0 + owned1);

  const auto warm_before = world.pfs->Stats().Snapshot();
  world.WarmUp();
  // Node 0 warmed up first and asked node 1 to stage node 1's shard
  // rather than read it from the PFS itself: every file crossed the PFS
  // exactly once, through its owner.
  EXPECT_EQ(static_cast<std::uint64_t>(kFiles),
            (world.pfs->Stats().Snapshot() - warm_before).read_ops);
  EXPECT_EQ(owned1, world.nodes[0].monarch->Stats().peer_copy_joins);

  // Each node staged exactly its shard — never a non-owned file — so the
  // cluster holds the dataset once, not once per node.
  EXPECT_EQ(static_cast<std::uint64_t>(kFiles), world.group->directory().entries());
  EXPECT_EQ(static_cast<std::uint64_t>(kFiles),
            world.group->directory().placed_copies());
  for (int n = 0; n < 2; ++n) {
    const auto stats = world.nodes[static_cast<std::size_t>(n)].monarch->Stats();
    EXPECT_EQ(world.OwnedCount(n), stats.placement.completed);
    EXPECT_EQ(world.OwnedCount(n) * kFileBytes,
              world.nodes[static_cast<std::size_t>(n)].local_inner->TotalBytes());
  }
  // Node 1 warmed up second: node 0's shard was already placed, so those
  // epoch-1 reads crossed the fabric instead of hitting the PFS.
  const int peer = world.nodes[1].monarch->hierarchy().peer_level();
  ASSERT_GE(peer, 0);
  EXPECT_EQ(owned0, world.nodes[1].monarch->Stats().levels[peer].reads);

  // Steady state: a full epoch on every node touches the PFS zero times.
  const auto pfs_before = world.pfs->Stats().Snapshot();
  world.ReadAll(0);
  world.ReadAll(1);
  const auto pfs_delta = world.pfs->Stats().Snapshot() - pfs_before;
  EXPECT_EQ(0u, pfs_delta.read_ops);
  EXPECT_EQ(0u, pfs_delta.bytes_read);

  // The non-owned half of every epoch — the first included — crossed
  // the fabric; everything reconciles: interconnect transfers plus
  // slices served from peer deposits == peer-level reads == directory
  // remote hits (a whole-file read leaves nothing of its run unread, so
  // it keeps no peer deposit and every peer-level read is a transfer),
  // and the ladder never fired.
  const auto stats0 = world.nodes[0].monarch->Stats();
  const auto stats1 = world.nodes[1].monarch->Stats();
  EXPECT_EQ(2 * owned1, stats0.levels[peer].reads);
  EXPECT_EQ(2 * owned0, stats1.levels[peer].reads);
  EXPECT_EQ(0u, stats0.degraded_fallbacks);
  EXPECT_EQ(0u, stats1.degraded_fallbacks);
  EXPECT_EQ(stats0.levels[peer].reads + stats1.levels[peer].reads,
            world.group->network()->transfers());
  EXPECT_EQ((2 * owned1 + 2 * owned0) * kFileBytes,
            world.group->network()->bytes_transferred());
  EXPECT_EQ(2 * owned0, world.group->directory().StatsFor(0).remote_hits);
  EXPECT_EQ(2 * owned1, world.group->directory().StatsFor(1).remote_hits);
}

// Satellite (d): the owner node's engine goes UNAVAILABLE mid-read. A
// transient blip is absorbed by the peer driver's retry loop; a hard
// outage exhausts the retries and the PFS rescues the read. Either way
// the caller sees golden bytes and status OK, and injected == absorbed.
TEST(PeerCacheTest, OwnerOutageRetriesThenFallsBackToPfs) {
  PeerWorld world(2);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  world.WarmUp();

  const std::vector<int> owned0 = world.OwnedFiles(0);
  ASSERT_GE(owned0.size(), 2u);
  const int peer = world.nodes[1].monarch->hierarchy().peer_level();
  ASSERT_GE(peer, 0);
  std::vector<std::byte> buf(kFileBytes);
  auto& reader = *world.nodes[1].monarch;

  // Transient: two injected failures, absorbed entirely by retries.
  world.nodes[0].local->FailNextReads(2);
  ASSERT_OK(reader.Read(File(owned0[0]), 0, buf));
  EXPECT_EQ(GoldenPayload(owned0[0]),
            std::vector<std::byte>(buf.begin(), buf.end()));
  auto stats = reader.Stats();
  EXPECT_EQ(2u, stats.levels[peer].retries);
  EXPECT_EQ(0u, stats.degraded_fallbacks);

  // Hard outage: retries exhaust, the ladder counts a peer_error, and
  // the PFS delivers the authoritative bytes.
  const auto pfs_before = world.pfs->Stats().Snapshot();
  world.nodes[0].local->FailUntilHealed();
  ASSERT_OK(reader.Read(File(owned0[1]), 0, buf));
  EXPECT_EQ(GoldenPayload(owned0[1]),
            std::vector<std::byte>(buf.begin(), buf.end()));
  stats = reader.Stats();
  EXPECT_EQ(1u, stats.fallbacks_peer_error);
  EXPECT_EQ(1u, stats.degraded_fallbacks);
  EXPECT_EQ(1u, (world.pfs->Stats().Snapshot() - pfs_before).read_ops);

  // Reconciliation: every injected fault was either retried in place or
  // surfaced exactly once into the PFS fallback. Nothing reached the app.
  EXPECT_EQ(world.nodes[0].local->injected_failures(),
            stats.levels[peer].retries + stats.fallbacks_peer_error);

  // After the owner heals, peer service resumes transparently.
  world.nodes[0].local->Heal();
  ASSERT_OK(reader.Read(File(owned0[0]), 0, buf));
  EXPECT_EQ(GoldenPayload(owned0[0]),
            std::vector<std::byte>(buf.begin(), buf.end()));
}

// The directory still advertises a holder whose copy vanished (the
// eviction-race window): the peer read comes back kNotFound, the ladder
// counts a peer_miss, and the PFS rescues the read.
TEST(PeerCacheTest, VanishedPeerCopyFallsBackAsMiss) {
  PeerWorld world(2);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  world.WarmUp();

  const std::vector<int> owned0 = world.OwnedFiles(0);
  ASSERT_GE(owned0.size(), 1u);
  // Rip the staged copy out from under the directory (a staged file is
  // its run object, named after the dataset-relative path).
  ASSERT_OK(world.nodes[0].local_inner->Delete(
      pack::ChunkObjectName(File(owned0[0]), 0)));

  std::vector<std::byte> buf(kFileBytes);
  ASSERT_OK(world.nodes[1].monarch->Read(File(owned0[0]), 0, buf));
  EXPECT_EQ(GoldenPayload(owned0[0]),
            std::vector<std::byte>(buf.begin(), buf.end()));
  const auto stats = world.nodes[1].monarch->Stats();
  EXPECT_EQ(1u, stats.fallbacks_peer_miss);
  EXPECT_EQ(0u, stats.fallbacks_peer_error);
  EXPECT_EQ(1u, stats.degraded_fallbacks);
}

// One fabric transfer per peer run: the sliced reads of this suite use
// files of several 64 KiB slices, cut into runs of two slices and a
// short tail by a 128 KiB staging chunk.
constexpr std::size_t kSlice = 64 * 1024;
constexpr std::uint64_t kRunBytes = 2 * kSlice;
constexpr std::size_t kRunFileBytes = 2 * kRunBytes + 5000;  // 3 runs
constexpr int kRunFileSlices = 5;

// A peer-served file read in 64 KiB slices moves each run across the
// fabric once, at its first slice, and serves the run's later slices
// from that fetch, the run's peer deposit: golden bytes, one transfer
// and one remote device op per run, every run byte moved once, and
// peer-level reads still one per slice (transfers + deposit hits).
TEST(PeerRunTest, SlicedPeerReadMovesEachRunOnce) {
  PeerWorld world(2, kRunFileBytes, {}, kRunBytes);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  world.WarmUp();
  const std::vector<int> owned0 = world.OwnedFiles(0);
  ASSERT_FALSE(owned0.empty());
  const auto& net = *world.group->network();
  const int peer = world.nodes[1].monarch->hierarchy().peer_level();
  const std::uint64_t peer_reads =
      world.nodes[1].monarch->Stats().levels[peer].reads;
  const std::uint64_t transfers = net.transfers();
  const std::uint64_t moved = net.bytes_transferred();
  const std::uint64_t holder_ops =
      world.nodes[0].local_inner->Stats().Snapshot().read_ops;
  const std::uint64_t hits = world.nodes[1].monarch->Stats().deposit_hits;

  for (const int i : owned0) {
    world.ReadSlices(1, i, 0, kRunFileSlices, kSlice);
  }
  const std::uint64_t files = owned0.size();
  EXPECT_EQ(3 * files, net.transfers() - transfers);
  EXPECT_EQ(files * kRunFileBytes, net.bytes_transferred() - moved);
  EXPECT_EQ(3 * files,
            world.nodes[0].local_inner->Stats().Snapshot().read_ops -
                holder_ops);
  const auto stats = world.nodes[1].monarch->Stats();
  EXPECT_EQ(2 * files, stats.deposit_hits - hits);
  EXPECT_EQ(kRunFileSlices * files, stats.levels[peer].reads - peer_reads);
  EXPECT_EQ(stats.levels[peer].reads - peer_reads,
            (net.transfers() - transfers) + (stats.deposit_hits - hits));
  EXPECT_EQ(0u, stats.degraded_fallbacks);
  EXPECT_EQ(0u, stats.placement.deposit_held_bytes)
      << "every run was read to its last byte";
}

// A first read that starts mid-run has no deposit under it: it moves
// only its slice. The next run, read from its start, moves whole.
TEST(PeerRunTest, PeerReadStartingMidRunMovesOnlyItsSlice) {
  PeerWorld world(2, kRunFileBytes, {}, kRunBytes);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  world.WarmUp();
  const std::vector<int> owned0 = world.OwnedFiles(0);
  ASSERT_FALSE(owned0.empty());
  const auto& net = *world.group->network();
  const std::uint64_t transfers = net.transfers();
  const std::uint64_t moved = net.bytes_transferred();
  const std::uint64_t hits = world.nodes[1].monarch->Stats().deposit_hits;

  world.ReadSlices(1, owned0[0], kSlice, 1, kSlice);
  EXPECT_EQ(1u, net.transfers() - transfers);
  EXPECT_EQ(kSlice, net.bytes_transferred() - moved);
  // The next run starts at 2 slices: its first slice fetches it whole,
  // and its second slice is served from that fetch.
  world.ReadSlices(1, owned0[0], 2 * kSlice, 2, kSlice);
  EXPECT_EQ(2u, net.transfers() - transfers);
  EXPECT_EQ(kSlice + kRunBytes, net.bytes_transferred() - moved);
  EXPECT_EQ(1u, world.nodes[1].monarch->Stats().deposit_hits - hits);
}

// The holder dies between two slices (replication 1): the directory
// retracts its copy, so the next slices leave the peer rung — and the
// run's peer deposit with it — exactly as a read without one would:
// golden bytes, no further peer-level read, no fabric trip, no degraded
// fallback.
TEST(PeerRunTest, KilledHolderBetweenSlicesLeavesTheBufferedRun) {
  PeerWorld world(2, kRunFileBytes, {}, kRunBytes);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  world.WarmUp();
  const std::vector<int> owned0 = world.OwnedFiles(0);
  ASSERT_FALSE(owned0.empty());
  const auto& net = *world.group->network();
  const std::uint64_t transfers = net.transfers();
  const int peer = world.nodes[1].monarch->hierarchy().peer_level();
  const std::uint64_t peer_reads =
      world.nodes[1].monarch->Stats().levels[peer].reads;

  world.ReadSlices(1, owned0[0], 0, 1, kSlice);
  ASSERT_EQ(1u, net.transfers() - transfers);
  world.group->KillNode(0);
  world.ReadSlices(1, owned0[0], kSlice, kRunFileSlices - 1, kSlice);
  EXPECT_EQ(1u, net.transfers() - transfers);
  const auto stats = world.nodes[1].monarch->Stats();
  EXPECT_EQ(peer_reads + 1, stats.levels[peer].reads)
      << "only the first slice was served at the peer rung";
  EXPECT_EQ(0u, stats.degraded_fallbacks);
  EXPECT_EQ(0u, stats.fallbacks_peer_miss + stats.fallbacks_peer_error);
}

// Replicated: the holder that served a run's first slice dies while the
// other replica still advertises the file. The ladder still routes the
// next slice to the peer rung, and the run's deposit serves it: its
// bytes crossed the fabric before the kill, the dataset is immutable and
// the holder verified them when it staged them. One transfer, no fabric
// trip for the second slice.
TEST(PeerRunTest, KilledHolderBetweenSlicesReResolvesToReplica) {
  constexpr int kNodes = 4;
  PeerOptions options;
  options.replication = 2;
  PeerWorld world(kNodes, kRunFileBytes, options, kRunBytes);
  for (const Node& node : world.nodes) ASSERT_TRUE(node.monarch);
  world.WarmUp();
  FileDirectory& directory = world.group->directory();
  // A file with two placed replicas, read by a node that owns it neither
  // now nor after either replica's holder dies (else the reader would
  // stage the file itself instead of re-resolving).
  const auto stays_reader = [](int i, int reader, int killed) {
    FileDirectory after(kNodes, 2);
    after.NodeDown(killed);
    return !after.IsOwner(File(i), reader);
  };
  int file = -1;
  int reader = -1;
  for (int i = 0; i < kFiles && file < 0; ++i) {
    for (int n = 0; n < kNodes; ++n) {
      const std::vector<int> holders = directory.PlacedHolders(File(i), n);
      if (!directory.IsOwner(File(i), n) && holders.size() == 2 &&
          stays_reader(i, n, holders[0]) && stays_reader(i, n, holders[1])) {
        file = i;
        reader = n;
        break;
      }
    }
  }
  ASSERT_GE(file, 0) << "no file with two placed replicas";
  std::vector<std::uint64_t> hits_before;
  for (int n = 0; n < kNodes; ++n) {
    hits_before.push_back(directory.StatsFor(n).remote_hits);
  }
  const auto& net = *world.group->network();
  const std::uint64_t transfers = net.transfers();
  const std::uint64_t moved = net.bytes_transferred();
  core::Monarch& monarch = *world.nodes[static_cast<std::size_t>(reader)].monarch;
  const std::uint64_t hits = monarch.Stats().deposit_hits;

  world.ReadSlices(reader, file, 0, 1, kSlice);
  int served_by = -1;
  for (int n = 0; n < kNodes; ++n) {
    if (directory.StatsFor(n).remote_hits > hits_before[n]) served_by = n;
  }
  ASSERT_GE(served_by, 0);
  world.group->KillNode(served_by);
  // Repair may already have placed a copy on the file's new owner; the
  // dead holder is out of the directory either way.
  const std::vector<int> live = directory.PlacedHolders(File(file), reader);
  ASSERT_FALSE(live.empty());
  ASSERT_EQ(live.end(), std::find(live.begin(), live.end(), served_by));

  world.ReadSlices(reader, file, kSlice, 1, kSlice);
  EXPECT_EQ(1u, net.transfers() - transfers);
  EXPECT_EQ(kRunBytes, net.bytes_transferred() - moved);
  const auto stats = monarch.Stats();
  EXPECT_EQ(1u, stats.deposit_hits - hits);
  EXPECT_EQ(0u, stats.degraded_fallbacks);
}

// Two nodes reading the same remote object from one thread each keep
// their own deposits: a run one node fetched whole is never served to
// the other, and a fetch by one leaves the other's deposit in place.
TEST(PeerRunTest, NodesOnOneThreadNeverShareABufferedRun) {
  PeerWorld world(3, kRunFileBytes, {}, kRunBytes);
  for (const Node& node : world.nodes) ASSERT_TRUE(node.monarch);
  world.WarmUp();
  const std::vector<int> owned0 = world.OwnedFiles(0);
  ASSERT_FALSE(owned0.empty());
  const int file = owned0[0];
  const auto& net = *world.group->network();
  const std::uint64_t transfers = net.transfers();
  const auto hits = [&](int node) {
    return world.nodes[static_cast<std::size_t>(node)]
        .monarch->Stats()
        .deposit_hits;
  };
  const std::uint64_t hits1 = hits(1);
  const std::uint64_t hits2 = hits(2);

  world.ReadSlices(1, file, 0, 1, kSlice);  // node 1 fetches the run
  EXPECT_EQ(1u, net.transfers() - transfers);
  world.ReadSlices(2, file, kSlice, 1, kSlice);  // node 2: its own slice
  EXPECT_EQ(2u, net.transfers() - transfers);
  EXPECT_EQ(hits2, hits(2));
  world.ReadSlices(1, file, kSlice, 1, kSlice);  // node 1: its deposit
  EXPECT_EQ(2u, net.transfers() - transfers);
  EXPECT_EQ(hits1 + 1, hits(1));

  world.ReadSlices(1, file, 2 * kSlice, 1, kSlice);  // node 1: next run
  world.ReadSlices(2, file, 0, 1, kSlice);  // node 2 fetches run 0 whole
  EXPECT_EQ(4u, net.transfers() - transfers);
  world.ReadSlices(1, file, 3 * kSlice, 1, kSlice);  // still node 1's
  EXPECT_EQ(4u, net.transfers() - transfers);
  EXPECT_EQ(hits1 + 2, hits(1));
  EXPECT_EQ(hits2, hits(2));
}

// A run's deposit is the node's, not a thread's: the run one thread
// fetched whole at its first slice serves another thread's next slice
// with no fabric trip.
TEST(PeerRunTest, AnotherThreadOfTheNodeIsServedFromTheRunsDeposit) {
  PeerWorld world(2, kRunFileBytes, {}, kRunBytes);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  world.WarmUp();
  const std::vector<int> owned0 = world.OwnedFiles(0);
  ASSERT_FALSE(owned0.empty());
  const auto& net = *world.group->network();
  core::Monarch& reader = *world.nodes[1].monarch;
  const std::uint64_t transfers = net.transfers();
  const std::uint64_t moved = net.bytes_transferred();
  const std::uint64_t hits = reader.Stats().deposit_hits;

  std::thread([&] { world.ReadSlices(1, owned0[0], 0, 1, kSlice); }).join();
  EXPECT_EQ(1u, net.transfers() - transfers);
  EXPECT_EQ(kRunBytes, reader.Stats().placement.deposit_held_bytes);
  std::thread([&] {
    world.ReadSlices(1, owned0[0], kSlice, 1, kSlice);
  }).join();
  EXPECT_EQ(1u, net.transfers() - transfers);
  EXPECT_EQ(kRunBytes, net.bytes_transferred() - moved);
  EXPECT_EQ(hits + 1, reader.Stats().deposit_hits);
  EXPECT_EQ(0u, reader.Stats().placement.deposit_held_bytes)
      << "released at the run's last byte";
}

// A peer run is held only when the staging budget has room for it: with
// the budget full, a read at a run's start moves just its slice and
// keeps nothing, so the run's next slice crosses the fabric too.
TEST(PeerRunTest, RunTheStagingBudgetCannotHoldMovesOnlyItsSlice) {
  PeerWorld world(2, kRunFileBytes, {}, kRunBytes, /*buffer_bytes=*/kRunBytes);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  world.WarmUp();
  const std::vector<int> owned0 = world.OwnedFiles(0);
  ASSERT_GE(owned0.size(), 2u);
  const auto& net = *world.group->network();
  core::Monarch& reader = *world.nodes[1].monarch;
  const std::uint64_t transfers = net.transfers();
  const std::uint64_t moved = net.bytes_transferred();
  const std::uint64_t hits = reader.Stats().deposit_hits;

  world.ReadSlices(1, owned0[0], 0, 1, kSlice);  // fills the budget
  ASSERT_EQ(kRunBytes, reader.Stats().placement.deposit_held_bytes);
  world.ReadSlices(1, owned0[1], 0, 2, kSlice);  // no room: two slices
  EXPECT_EQ(3u, net.transfers() - transfers);
  EXPECT_EQ(kRunBytes + 2 * kSlice, net.bytes_transferred() - moved);
  EXPECT_EQ(hits, reader.Stats().deposit_hits);
  EXPECT_EQ(kRunBytes, reader.Stats().placement.deposit_held_bytes);

  world.ReadSlices(1, owned0[0], kSlice, 1, kSlice);
  EXPECT_EQ(hits + 1, reader.Stats().deposit_hits);
  EXPECT_EQ(0u, reader.Stats().placement.deposit_held_bytes);
  EXPECT_EQ(0u, reader.Stats().degraded_fallbacks);
}

// A node that read a run from a peer and then stages that run itself
// (churn repair, with a visit open) holds one deposit for it: the
// published run's own verified bytes replace the peer run's.
TEST(PeerRunTest, LocalPublishReplacesThePeerDeposit) {
  // Three nodes, so node 1's share of node 0's shard fits its quota
  // beside its own: repair stages the file whole.
  constexpr int kNodes = 3;
  PeerWorld world(kNodes, kRunFileBytes, {}, kRunBytes);
  for (const Node& node : world.nodes) ASSERT_TRUE(node.monarch);
  world.WarmUp();
  FileDirectory after(kNodes);
  after.NodeDown(0);
  int file = -1;
  for (const int i : world.OwnedFiles(0)) {
    if (after.IsOwner(File(i), 1)) file = i;
  }
  ASSERT_GE(file, 0) << "no file of node 0 that node 1 inherits";
  core::Monarch& reader = *world.nodes[1].monarch;
  const core::ReadLease visit = reader.PinVisit(File(file));

  world.ReadSlices(1, file, 0, 1, kSlice);
  ASSERT_EQ(kRunBytes, reader.Stats().placement.deposit_held_bytes);
  world.group->KillNode(0);  // node 1 now owns the file: repair stages it
  reader.DrainPlacements();
  const core::FileInfoPtr info = reader.metadata().Lookup(File(file));
  ASSERT_NE(nullptr, info);
  ASSERT_NE(nullptr, info->chunk_map());
  ASSERT_EQ(info->chunk_map()->num_chunks(),
            info->chunk_map()->ResidentCount());
  EXPECT_EQ(kRunFileBytes, reader.Stats().placement.deposit_held_bytes)
      << "one deposit per run";

  const std::uint64_t hits = reader.Stats().deposit_hits;
  world.ReadSlices(1, file, kSlice, kRunFileSlices - 1, kSlice);
  EXPECT_EQ(hits + kRunFileSlices - 1, reader.Stats().deposit_hits);
  EXPECT_EQ(0u, reader.Stats().placement.deposit_held_bytes);
}

/// Look-ahead `lookahead` on every node of a two-node world of 3-run
/// files (staging chunk kRunBytes).
PeerWorld ReadAheadWorld(int lookahead, std::uint64_t buffer_bytes = 0,
                         int threads = 0) {
  return PeerWorld(2, kRunFileBytes, {}, kRunBytes, buffer_bytes,
                   [=](core::MonarchConfig& config) {
                     config.placement.prefetch_lookahead = lookahead;
                     if (threads > 0) config.placement.num_threads = threads;
                   });
}

std::vector<std::string> Names(const std::vector<int>& files) {
  std::vector<std::string> names;
  for (const int i : files) names.push_back(File(i));
  return names;
}

// Look-ahead reads the scheduled files another node holds over the peer
// rung before their reader arrives: each run crosses the fabric once, as
// one transfer, into a deposit, and the visits that follow are served
// from memory without a fabric trip.
TEST(PeerRunTest, ReadAheadMovesEachPeerRunOnceBeforeItsReader) {
  PeerWorld world = ReadAheadWorld(kFiles);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  world.WarmUp();
  const std::vector<int> owned0 = world.OwnedFiles(0);
  ASSERT_FALSE(owned0.empty());
  const auto& net = *world.group->network();
  core::Monarch& reader = *world.nodes[1].monarch;
  const std::uint64_t transfers = net.transfers();
  const std::uint64_t moved = net.bytes_transferred();
  const core::MonarchStats before = reader.Stats();

  reader.InstallRunSchedule({Names(owned0)});
  reader.DrainPlacements();
  const std::uint64_t files = owned0.size();
  EXPECT_EQ(3 * files, net.transfers() - transfers) << "one per run";
  EXPECT_EQ(files * kRunFileBytes, net.bytes_transferred() - moved);
  const core::MonarchStats ready = reader.Stats();
  EXPECT_EQ(files * kRunFileBytes, ready.placement.deposit_held_bytes);
  EXPECT_EQ(files, ready.placement.prefetch_scheduled -
                       before.placement.prefetch_scheduled);
  EXPECT_EQ(files, ready.placement.prefetch_completed -
                       before.placement.prefetch_completed);

  for (const int i : owned0) {
    world.ReadSlices(1, i, 0, kRunFileSlices, kSlice);
  }
  EXPECT_EQ(3 * files, net.transfers() - transfers)
      << "the visits crossed the fabric";
  const core::MonarchStats after = reader.Stats();
  EXPECT_EQ(kRunFileSlices * files, after.deposit_hits - before.deposit_hits);
  EXPECT_EQ(files, after.prefetch_hits - before.prefetch_hits);
  EXPECT_EQ(0u, after.placement.readahead_unread);
  EXPECT_EQ(0u, after.placement.deposit_held_bytes);
  EXPECT_EQ(0u, after.degraded_fallbacks);
}

// A demand read that reaches a file whose read-ahead is running waits
// for it, and one that finds it still queued runs it itself: either way
// the run crosses the fabric once.
TEST(PeerRunTest, DemandReadJoinsAQueuedOrRunningReadAhead) {
  for (const bool running : {true, false}) {
    SCOPED_TRACE(running ? "running" : "queued");
    // One placement worker on the reader, so a second read-ahead queues
    // behind the first, which the holder's gate parks mid-transfer.
    PeerWorld world = ReadAheadWorld(kFiles, 0, /*threads=*/1);
    ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
    world.WarmUp();
    const std::vector<int> owned0 = world.OwnedFiles(0);
    ASSERT_GE(owned0.size(), 2u);
    auto gate = std::make_shared<testing::GateEngine>(
        pack::ChunkObjectName(File(owned0[0]), 0), world.nodes[0].local,
        /*gate_reads=*/true);
    const testing::GateRelease release_gate(gate);
    world.group->RegisterNode(0, gate);  // peers read node 0 through it
    const auto& net = *world.group->network();
    core::Monarch& reader = *world.nodes[1].monarch;
    const std::uint64_t transfers = net.transfers();
    const core::MonarchStats before = reader.Stats();

    reader.InstallRunSchedule({Names({owned0[0], owned0[1]})});
    gate->AwaitBlocked();
    const int file = running ? owned0[0] : owned0[1];
    std::thread visit(
        [&] { world.ReadSlices(1, file, 0, kRunFileSlices, kSlice); });
    if (running) {
      // The reader finds the read-ahead running and waits on it.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    } else {
      visit.join();  // it ran the queued read-ahead itself
    }
    gate->ReleaseBlocked();
    if (visit.joinable()) visit.join();
    reader.DrainPlacements();

    const core::MonarchStats after = reader.Stats();
    EXPECT_EQ(6u, net.transfers() - transfers)
        << "each run of the two files crossed the fabric once";
    EXPECT_EQ(kRunFileSlices, after.deposit_hits - before.deposit_hits);
    EXPECT_EQ(running ? 0u : 1u, after.placement.prefetch_promoted -
                                     before.placement.prefetch_promoted);
    EXPECT_EQ(0u, after.degraded_fallbacks);
  }
}

// A holder killed between the read-ahead and its reader (replication
// 1): the reader still gets golden bytes.
TEST(PeerRunTest, HolderKilledBetweenReadAheadAndReaderYieldsGoldenBytes) {
  PeerWorld world = ReadAheadWorld(kFiles);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  world.WarmUp();
  const std::vector<int> owned0 = world.OwnedFiles(0);
  ASSERT_FALSE(owned0.empty());
  core::Monarch& reader = *world.nodes[1].monarch;
  reader.InstallRunSchedule({Names(owned0)});
  reader.DrainPlacements();
  ASSERT_EQ(owned0.size() * kRunFileBytes,
            reader.Stats().placement.deposit_held_bytes);

  world.group->KillNode(0);
  for (const int i : owned0) {
    world.ReadSlices(1, i, 0, kRunFileSlices, kSlice);
  }
  reader.DrainPlacements();
  EXPECT_EQ(0u, reader.Stats().degraded_fallbacks);
  reader.Shutdown();
  EXPECT_EQ(0u, reader.Stats().placement.deposit_held_bytes);
}

/// Readers on every node race peer-run fetches, owner staging with its
/// donations and deposits, look-ahead read-aheads when `lookahead` is
/// set, and the reclaim that a small staging budget forces: every byte
/// is golden, a node's donations and deposits together never exceed its
/// budget, and nothing stays held after Shutdown.
void HeldBytesStayInsideTheBudget(int lookahead) {
  constexpr std::uint64_t kBudget = 3 * kRunBytes;
  constexpr int kNodes = 2;
  constexpr int kReaders = 2;
  PeerWorld world(kNodes, kRunFileBytes, {}, kRunBytes, kBudget,
                  [=](core::MonarchConfig& config) {
                    config.placement.prefetch_lookahead = lookahead;
                  });
  for (const Node& node : world.nodes) ASSERT_TRUE(node.monarch);
  // Each node's schedule is its first reader's order; the second
  // reader's visits run off it.
  const auto order = [](int n, int r, int epoch, int k) {
    return (k * 5 + r * 3 + epoch * 7 + n) % kFiles;
  };
  for (int n = 0; n < kNodes; ++n) {
    std::vector<std::vector<std::string>> epochs(2);
    for (int epoch = 0; epoch < 2; ++epoch) {
      for (int k = 0; k < kFiles; ++k) {
        epochs[static_cast<std::size_t>(epoch)].push_back(
            File(order(n, 0, epoch, k)));
      }
    }
    world.nodes[static_cast<std::size_t>(n)].monarch->InstallRunSchedule(
        epochs);
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> overrun{0};
  std::thread sampler([&] {
    while (!done.load()) {
      for (const Node& node : world.nodes) {
        const core::PlacementStats p = node.monarch->Stats().placement;
        const std::uint64_t held = p.donation_held_bytes + p.deposit_held_bytes;
        if (held > kBudget) overrun.store(held);
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (int n = 0; n < kNodes; ++n) {
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&world, &order, n, r] {
        for (int epoch = 0; epoch < 2; ++epoch) {
          for (int k = 0; k < kFiles; ++k) {
            const int i = order(n, r, epoch, k);
            const core::ReadLease visit =
                world.nodes[static_cast<std::size_t>(n)].monarch->PinVisit(
                    File(i));
            world.ReadSlices(n, i, 0, kRunFileSlices, kSlice);
          }
        }
      });
    }
  }
  for (std::thread& reader : readers) reader.join();
  done.store(true);
  sampler.join();

  EXPECT_EQ(0u, overrun.load()) << "held bytes overran the staging budget";
  std::uint64_t hits = 0;
  for (const Node& node : world.nodes) hits += node.monarch->Stats().deposit_hits;
  EXPECT_GT(hits, 0u);
  for (const Node& node : world.nodes) {
    node.monarch->Shutdown();
    const core::PlacementStats p = node.monarch->Stats().placement;
    EXPECT_EQ(0u, p.donation_held_bytes);
    EXPECT_EQ(0u, p.deposit_held_bytes);
  }
}

TEST(PeerRunTest, HeldBytesStayInsideTheBudgetUnderPeerReadsAndStaging) {
  HeldBytesStayInsideTheBudget(/*lookahead=*/0);
}

TEST(PeerRunTest, HeldBytesStayInsideTheBudgetUnderReadAhead) {
  HeldBytesStayInsideTheBudget(/*lookahead=*/4);
}

// Peer sharing is cooperative, not load-bearing: a cluster of one gets a
// working (if pointless) peer tier — every lookup misses, every read
// stays local or PFS, and nothing falls over.
TEST(PeerCacheTest, SingleNodeClusterDegeneratesGracefully) {
  PeerWorld world(1);
  ASSERT_TRUE(world.nodes[0].monarch != nullptr);
  world.WarmUp();
  world.ReadAll(0);

  const auto stats = world.nodes[0].monarch->Stats();
  const int peer = world.nodes[0].monarch->hierarchy().peer_level();
  ASSERT_GE(peer, 0);
  EXPECT_EQ(0u, stats.levels[peer].reads);
  EXPECT_EQ(static_cast<std::uint64_t>(kFiles), stats.placement.completed);
  EXPECT_EQ(0u, stats.degraded_fallbacks);
  EXPECT_EQ(0u, world.group->network()->transfers());
}

}  // namespace
}  // namespace monarch::cluster

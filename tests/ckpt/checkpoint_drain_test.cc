// Drain-lane behaviour: the background drain rides the retry/circuit-
// breaker ladder through PFS outages, and with a QoS broker installed its
// PFS bytes are charged to the drain tenant, apart from demand reads. A
// drain writes Save's verified read-back from memory when Save could keep
// it, reads the local copy otherwise, and prunes a generation whose local
// copy turns out corrupt or gone instead of retrying it forever.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../test_support.h"
#include "ckpt/checkpoint_manager.h"
#include "qos/bandwidth_broker.h"
#include "storage/faulty_engine.h"
#include "storage/memory_engine.h"
#include "util/crc32c.h"

namespace monarch::ckpt {
namespace {

std::vector<std::byte> Payload(std::size_t bytes, std::uint8_t salt = 0) {
  std::vector<std::byte> data(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<std::byte>((i + salt) & 0xFF);
  }
  return data;
}

constexpr std::size_t kChunk = 64 * 1024;

/// Engines that outlive manager instances (a restart boots a new
/// manager over the same "disks"); the PFS can be taken down and healed.
struct Node {
  std::shared_ptr<storage::MemoryEngine> local =
      std::make_shared<storage::MemoryEngine>("local");
  std::shared_ptr<storage::MemoryEngine> pfs_inner =
      std::make_shared<storage::MemoryEngine>("pfs");
  std::shared_ptr<storage::FaultyEngine> pfs =
      std::make_shared<storage::FaultyEngine>(
          pfs_inner, storage::FaultyEngine::FaultSpec{});
  std::unique_ptr<core::StorageHierarchy> hierarchy;

  std::unique_ptr<CheckpointManager> Boot(CheckpointOptions options) {
    std::vector<core::StorageDriverPtr> drivers;
    drivers.push_back(std::make_unique<core::StorageDriver>(
        "local", local, 16 << 20, /*read_only=*/false));
    drivers.push_back(std::make_unique<core::StorageDriver>(
        "pfs", pfs, 0, /*read_only=*/true));
    hierarchy =
        std::move(core::StorageHierarchy::Create(std::move(drivers))).value();
    return std::make_unique<CheckpointManager>(*hierarchy, options);
  }

  std::vector<std::byte> PfsCopy(const std::string& path,
                                 std::size_t bytes) const {
    std::vector<std::byte> out(bytes);
    auto read = pfs_inner->Read(path, 0, out);
    if (!read.ok() || read.value() != bytes) return {};
    return out;
  }
};

CheckpointOptions ChunkedOptions(std::size_t buffer_chunks) {
  CheckpointOptions options;
  options.chunk_bytes = kChunk;
  options.buffer_bytes = buffer_chunks * kChunk;
  return options;
}

/// Flush, failing the test instead of hanging when the drain lane never
/// settles; Shutdown then releases the waiter.
::testing::AssertionResult FlushSettles(CheckpointManager& manager) {
  auto flushed = std::async(std::launch::async,
                            [&manager] { return manager.Flush(); });
  if (flushed.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    manager.Shutdown();
    flushed.wait();
    return ::testing::AssertionFailure()
           << "Flush did not return: " << manager.GetStats().pending_drains
           << " drains pending, " << manager.GetStats().drain_retries
           << " retries";
  }
  const Status status = flushed.get();
  if (!status.ok()) {
    return ::testing::AssertionFailure() << status.ToString();
  }
  return ::testing::AssertionSuccess();
}

TEST(CheckpointDrainTest, PfsOutageAbsorbedByRetryLadder) {
  auto local = std::make_shared<storage::MemoryEngine>("local");
  auto pfs_inner = std::make_shared<storage::MemoryEngine>("pfs");
  auto pfs = std::make_shared<storage::FaultyEngine>(
      pfs_inner, storage::FaultyEngine::FaultSpec{});
  std::vector<core::StorageDriverPtr> drivers;
  drivers.push_back(std::make_unique<core::StorageDriver>(
      "local", local, 1 << 20, /*read_only=*/false));
  drivers.push_back(std::make_unique<core::StorageDriver>(
      "pfs", pfs, 0, /*read_only=*/true));
  auto hierarchy =
      std::move(core::StorageHierarchy::Create(std::move(drivers))).value();

  pfs->FailUntilHealed();
  CheckpointManager manager(*hierarchy, {});
  const auto data = Payload(20'000);
  // Save succeeds instantly — the outage is the drain lane's problem.
  ASSERT_OK(manager.Save("model", data));
  EXPECT_EQ(1u, manager.GetStats().pending_drains);

  // Let the drain burn through a few retry rounds against the dead PFS,
  // then heal it; Flush must converge without any caller-visible error.
  while (manager.GetStats().drain_retries < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pfs->Heal();
  ASSERT_OK(manager.Flush());

  const auto stats = manager.GetStats();
  EXPECT_EQ(1u, stats.drains_completed);
  EXPECT_GE(stats.drain_retries, 3u);
  EXPECT_GT(pfs->injected_failures(), 0u);

  std::vector<std::byte> out(data.size());
  ASSERT_OK(pfs_inner->Read("ckpt/model.g1", 0, out));
  EXPECT_EQ(data, out);
}

TEST(CheckpointDrainTest, BrokerChargesDrainToTheDrainTenant) {
  auto local = std::make_shared<storage::MemoryEngine>("local");
  auto pfs = std::make_shared<storage::MemoryEngine>("pfs");
  const auto dataset = Payload(64 * 1024);
  ASSERT_OK(pfs->Write("data/train.rec", dataset));

  std::vector<core::StorageDriverPtr> drivers;
  drivers.push_back(std::make_unique<core::StorageDriver>(
      "local", local, 8 << 20, /*read_only=*/false));
  drivers.push_back(std::make_unique<core::StorageDriver>(
      "pfs", pfs, 0, /*read_only=*/true));
  auto hierarchy =
      std::move(core::StorageHierarchy::Create(std::move(drivers))).value();

  // One enabled broker over the PFS, fast enough never to throttle. Demand
  // reads through the hierarchy's PFS driver fall back to `unattributed`
  // only when no tenant is installed.
  auto broker = std::make_shared<qos::BandwidthBroker>(
      qos::BandwidthBroker::Options{.total_rate_bps = 1e12});
  const qos::TenantContext demand{/*tenant_id=*/7, "trainer",
                                  qos::IoClass::kTraining, /*weight=*/4.0,
                                  /*low_retention=*/false};
  const qos::TenantContext unattributed{/*tenant_id=*/8, "unattributed",
                                        qos::IoClass::kTraining,
                                        /*weight=*/1.0,
                                        /*low_retention=*/false};
  broker->RegisterTenant(demand);
  hierarchy->Pfs().SetQosBroker(broker, unattributed);

  CheckpointOptions options;
  options.chunk_bytes = 64 * 1024;
  options.qos_broker = broker;
  CheckpointManager manager(*hierarchy, options);
  const auto checkpoint = Payload(256 * 1024);
  ASSERT_OK(manager.Save("model", checkpoint));
  ASSERT_OK(manager.Flush());
  ASSERT_EQ(1u, manager.GetStats().drains_completed);

  const auto consumed = [&](int tenant_id) -> std::uint64_t {
    for (const auto& usage : broker->Usage()) {
      if (usage.tenant_id == tenant_id) return usage.consumed_bytes;
    }
    return 0;
  };
  const int drain_id = options.tenant.tenant_id;
  bool drain_listed = false;
  for (const auto& usage : broker->Usage()) {
    if (usage.tenant_id != drain_id) continue;
    drain_listed = true;
    EXPECT_EQ("ckpt-drain", usage.name);
    EXPECT_EQ(qos::IoClass::kDrain, usage.io_class);
  }
  EXPECT_TRUE(drain_listed);
  // The drain wrote the checkpoint (and read it back to verify) as the
  // drain tenant; no demand tenant paid for it.
  const std::uint64_t drained = consumed(drain_id);
  EXPECT_GE(drained, checkpoint.size());
  EXPECT_EQ(0u, consumed(demand.tenant_id));
  EXPECT_EQ(0u, consumed(unattributed.tenant_id));

  // A demand read under its own tenant is charged to that tenant only.
  {
    qos::ScopedTenant scope(demand);
    std::vector<std::byte> buffer(dataset.size());
    auto read = hierarchy->Pfs().Read("data/train.rec", 0, buffer);
    ASSERT_OK(read);
    ASSERT_EQ(dataset.size(), read.value());
  }
  EXPECT_EQ(dataset.size(), consumed(demand.tenant_id));
  EXPECT_EQ(drained, consumed(drain_id));
  EXPECT_EQ(0u, consumed(unattributed.tenant_id));
}

TEST(CheckpointDrainTest, HeldDrainsReadEachSaveBackOnceAndNeverAgain) {
  // A pool with room for every chunk of every save, plus the free one a
  // hold never takes and the drain's verify lease: each Save keeps its
  // whole verified read-back.
  constexpr int kSaves = 4;
  constexpr std::size_t kBytes = 2 * kChunk + 1000;  // three chunks
  Node node;
  auto manager = node.Boot(ChunkedOptions(3 * kSaves + 2));
  const auto local_before = node.local->Stats().Snapshot();

  std::vector<std::vector<std::byte>> saved;
  for (int i = 0; i < kSaves; ++i) {
    saved.push_back(Payload(kBytes, static_cast<std::uint8_t>(i)));
    ASSERT_OK(manager->Save("model-" + std::to_string(i), saved.back()));
  }
  ASSERT_TRUE(FlushSettles(*manager));

  // One read-back per chunk of each save, and not one drain read.
  const auto local = node.local->Stats().Snapshot() - local_before;
  EXPECT_EQ(3u * kSaves, local.read_ops);
  EXPECT_EQ(kBytes * kSaves, local.bytes_read);
  const auto stats = manager->GetStats();
  EXPECT_EQ(0u, stats.drain_local_bytes);
  EXPECT_EQ(kBytes * kSaves, stats.drain_bytes);
  EXPECT_EQ(static_cast<std::uint64_t>(kSaves), stats.drains_completed);
  for (int i = 0; i < kSaves; ++i) {
    EXPECT_EQ(saved[static_cast<std::size_t>(i)],
              node.PfsCopy("ckpt/model-" + std::to_string(i) + ".g" +
                               std::to_string(i + 1),
                           kBytes))
        << "checkpoint " << i;
  }
}

TEST(CheckpointDrainTest, ResumedDrainReadsTheLocalCopy) {
  constexpr std::size_t kBytes = 3 * kChunk;
  Node node;
  const auto data = Payload(kBytes, 7);
  node.pfs->FailUntilHealed();
  {
    auto manager = node.Boot(ChunkedOptions(8));
    ASSERT_OK(manager->Save("model", data));
    // Killed before the PFS came back: its held read-back dies with it.
  }
  node.pfs->Heal();

  auto manager = node.Boot(ChunkedOptions(8));
  EXPECT_EQ(1u, manager->GetStats().resumed_drains);
  ASSERT_TRUE(FlushSettles(*manager));
  const auto stats = manager->GetStats();
  EXPECT_EQ(kBytes, stats.drain_local_bytes);
  EXPECT_EQ(kBytes, stats.drain_bytes);
  EXPECT_EQ(data, node.PfsCopy("ckpt/model.g1", kBytes));
}

TEST(CheckpointDrainTest, TwoChunkPoolDrainsUnheldAndHeldSavesThroughAnOutage) {
  // A two-chunk pool: a kept chunk never takes the last buffer, so at
  // most one chunk is held at a time. A drain resumed by recovery (not
  // held) sits ahead of the new saves while the PFS is down.
  constexpr std::size_t kBytes = 2 * kChunk + 500;
  Node node;
  const auto a = Payload(kBytes, 1);
  node.pfs->FailUntilHealed();
  {
    auto manager = node.Boot(ChunkedOptions(2));
    ASSERT_OK(manager->Save("a", a));
  }

  auto manager = node.Boot(ChunkedOptions(2));
  ASSERT_EQ(1u, manager->GetStats().resumed_drains);
  std::vector<std::vector<std::byte>> saved;
  for (int i = 0; i < 3; ++i) {
    saved.push_back(Payload(kBytes, static_cast<std::uint8_t>(10 + i)));
    // Returns with the PFS still down: no Save waits on a held lease
    // that only the stalled drain could give back.
    ASSERT_OK(manager->Save("b" + std::to_string(i), saved.back()));
  }
  EXPECT_EQ(4u, manager->GetStats().pending_drains);

  node.pfs->Heal();
  ASSERT_TRUE(FlushSettles(*manager));
  const auto stats = manager->GetStats();
  EXPECT_EQ(4u, stats.drains_completed);
  EXPECT_EQ(4 * kBytes, stats.drain_bytes);
  // The resumed drain reads its whole copy (and, while the PFS was down,
  // the chunk each failed attempt read before its write failed).
  EXPECT_GE(stats.drain_local_bytes, kBytes);
  EXPECT_EQ(a, node.PfsCopy("ckpt/a.g1", kBytes));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(saved[static_cast<std::size_t>(i)],
              node.PfsCopy("ckpt/b" + std::to_string(i) + ".g" +
                               std::to_string(i + 2),
                           kBytes))
        << "checkpoint b" << i;
  }
}

TEST(CheckpointDrainTest, OutageRetriesReadNoLocalChunk) {
  // Nothing is held, so every chunk is drained from the local copy. The
  // first attempt reads chunk 0 before its write fails; each retry the
  // breaker admits finds the PFS still refusing writes and reads nothing.
  constexpr std::size_t kBytes = 3 * kChunk;
  Node node;
  CheckpointOptions options = ChunkedOptions(4);
  options.verify_local_writes = false;
  auto manager = node.Boot(options);
  node.pfs->FailUntilHealed();
  const auto data = Payload(kBytes, 5);
  ASSERT_OK(manager->Save("model", data));

  // The breaker judges after 16 outcomes, and each admitted attempt's
  // write is tried 4 times: attempts 1–4 are all admitted.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (manager->GetStats().drain_retries < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(manager->GetStats().drain_retries, 4u)
      << "the drain never reached four retries";
  EXPECT_GE(node.pfs->injected_failures(), 16u) << "four admitted attempts";
  EXPECT_EQ(kChunk, manager->GetStats().drain_local_bytes)
      << "only the first attempt read a chunk";

  node.pfs->Heal();
  ASSERT_TRUE(FlushSettles(*manager));
  const auto stats = manager->GetStats();
  EXPECT_EQ(kChunk + kBytes, stats.drain_local_bytes)
      << "the first attempt's chunk, then the copy once";
  EXPECT_EQ(1u, stats.drains_completed);
  EXPECT_EQ(data, node.PfsCopy("ckpt/model.g1", kBytes));
}

TEST(CheckpointDrainTest, UnverifiedSavesHoldNothingAndTheDrainReadsLocal) {
  constexpr std::size_t kBytes = 2 * kChunk;
  Node node;
  CheckpointOptions options = ChunkedOptions(16);
  options.verify_local_writes = false;
  auto manager = node.Boot(options);
  const auto local_before = node.local->Stats().Snapshot();
  const auto data = Payload(kBytes, 3);
  ASSERT_OK(manager->Save("model", data));
  ASSERT_OK(manager->Save("model", data));
  ASSERT_TRUE(FlushSettles(*manager));

  // Save read nothing back, so every byte read was the drain's.
  const auto local = node.local->Stats().Snapshot() - local_before;
  const auto stats = manager->GetStats();
  EXPECT_EQ(2 * kBytes, stats.drain_local_bytes);
  EXPECT_EQ(2 * kBytes, local.bytes_read);
  EXPECT_EQ(data, node.PfsCopy("ckpt/model.g2", kBytes));
}

TEST(CheckpointDrainTest, CorruptLocalCopyIsPrunedNotRetriedForever) {
  constexpr std::size_t kBytes = 2 * kChunk;
  Node node;
  // One buffer: Save can keep nothing, so the drain must read the copy.
  auto manager = node.Boot(ChunkedOptions(1));
  const auto first = Payload(kBytes, 1);
  ASSERT_OK(manager->Save("model", first));
  ASSERT_TRUE(FlushSettles(*manager));

  node.pfs->FailUntilHealed();
  ASSERT_OK(manager->Save("model", Payload(kBytes, 2)));
  // Flip one byte of the committed, not yet durable local copy.
  std::vector<std::byte> copy(kBytes);
  ASSERT_OK(node.local->Read("ckpt/model.g2", 0, copy));
  copy[kChunk + 5] ^= std::byte{0x40};
  ASSERT_OK(node.local->Write("ckpt/model.g2", copy));
  node.pfs->Heal();

  // The drain finds the mismatch, prunes generation 2 and settles.
  ASSERT_TRUE(FlushSettles(*manager));
  const auto stats = manager->GetStats();
  EXPECT_EQ(0u, stats.pending_drains);
  EXPECT_EQ(1u, stats.drains_completed);
  EXPECT_EQ(1u, stats.local_quarantined);
  EXPECT_GE(stats.dropped_orphans, 1u);
  EXPECT_EQ(kBytes, stats.local_bytes) << "g2's quota is released";
  auto exists = node.local->Exists("ckpt/model.g2");
  ASSERT_OK(exists);
  EXPECT_FALSE(exists.value());
  auto on_pfs = node.pfs_inner->Exists("ckpt/model.g2");
  ASSERT_OK(on_pfs);
  EXPECT_FALSE(on_pfs.value()) << "no partial copy is left on the PFS";
  for (const auto& entry : manager->ManifestView()) {
    EXPECT_NE(2u, entry.gen) << "the lost generation is never listed";
  }
  // Restore serves the previous, durable generation.
  auto restored = manager->Restore("model");
  ASSERT_OK(restored);
  EXPECT_EQ(first, restored.value());

  // A restarted node agrees: generation 2 was pruned in the journal.
  manager.reset();
  manager = node.Boot(ChunkedOptions(1));
  EXPECT_EQ(0u, manager->GetStats().resumed_drains);
  restored = manager->Restore("model");
  ASSERT_OK(restored);
  EXPECT_EQ(first, restored.value());
}

TEST(CheckpointDrainTest, VanishedOrQuarantinedLocalCopyIsPruned) {
  constexpr std::size_t kBytes = kChunk + 100;
  Node node;
  auto manager = node.Boot(ChunkedOptions(1));
  node.pfs->FailUntilHealed();
  ASSERT_OK(manager->Save("gone", Payload(kBytes, 1)));
  ASSERT_OK(manager->Save("bad", Payload(kBytes, 2)));
  // "gone" vanishes from the tier; "bad" is corrupted, and Restore
  // quarantines it before the PFS heals.
  ASSERT_OK(node.local->Delete("ckpt/gone.g1"));
  std::vector<std::byte> copy(kBytes);
  ASSERT_OK(node.local->Read("ckpt/bad.g2", 0, copy));
  copy[0] ^= std::byte{0x01};
  ASSERT_OK(node.local->Write("ckpt/bad.g2", copy));
  EXPECT_STATUS_CODE(StatusCode::kDataLoss, manager->Restore("bad"));
  node.pfs->Heal();

  ASSERT_TRUE(FlushSettles(*manager));
  const auto stats = manager->GetStats();
  EXPECT_EQ(0u, stats.drains_completed);
  EXPECT_EQ(2u, stats.dropped_orphans);
  EXPECT_EQ(1u, stats.local_quarantined) << "Restore's; a vanished copy "
                                            "is not counted as quarantined";
  EXPECT_EQ(0u, stats.local_bytes);
  EXPECT_TRUE(manager->ManifestView().empty());
  // Nothing durable is claimed for either name.
  EXPECT_STATUS_CODE(StatusCode::kNotFound, manager->Restore("gone"));
  EXPECT_STATUS_CODE(StatusCode::kNotFound, manager->Restore("bad"));
}

}  // namespace
}  // namespace monarch::ckpt

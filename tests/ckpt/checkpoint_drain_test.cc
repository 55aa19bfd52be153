// Drain-lane behaviour: the background drain rides the retry/circuit-
// breaker ladder through PFS outages, and with a QoS broker installed its
// PFS bytes are charged to the drain tenant, apart from demand reads.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "../test_support.h"
#include "ckpt/checkpoint_manager.h"
#include "qos/bandwidth_broker.h"
#include "storage/faulty_engine.h"
#include "storage/memory_engine.h"

namespace monarch::ckpt {
namespace {

std::vector<std::byte> Payload(std::size_t bytes) {
  std::vector<std::byte> data(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<std::byte>(i & 0xFF);
  }
  return data;
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

}  // namespace
}  // namespace monarch::ckpt

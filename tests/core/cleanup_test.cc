#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "../test_support.h"
#include "core/monarch.h"
#include "qos/tenant.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;

class CleanupTest : public ::testing::Test {
 protected:
  Result<std::unique_ptr<Monarch>> Build(bool cleanup_on_shutdown,
                                         int files = 4,
                                         qos::QosOptions qos = {}) {
    pfs_ = std::make_shared<storage::MemoryEngine>("pfs");
    local_ = std::make_shared<storage::MemoryEngine>("local");
    for (int i = 0; i < files; ++i) {
      EXPECT_TRUE(
          pfs_->Write("data/f" + std::to_string(i), Bytes("0123456789"))
              .ok());
    }
    MonarchConfig config;
    config.cache_tiers.push_back(TierSpec{"local", local_, 1000});
    config.pfs = TierSpec{"pfs", pfs_, 0};
    config.dataset_dir = "data";
    config.placement.num_threads = 2;
    config.cleanup_staged_on_shutdown = cleanup_on_shutdown;
    config.placement.qos = qos;
    return Monarch::Create(std::move(config));
  }

  void StageAll(Monarch& monarch, int files = 4) {
    std::vector<std::byte> buf(10);
    for (int i = 0; i < files; ++i) {
      ASSERT_OK(monarch.Read("data/f" + std::to_string(i), 0, buf));
    }
    monarch.DrainPlacements();
  }

  std::shared_ptr<storage::MemoryEngine> pfs_;
  std::shared_ptr<storage::MemoryEngine> local_;
};

TEST_F(CleanupTest, CleanupRemovesStagedCopiesAndResetsOccupancy) {
  auto monarch = Build(false);
  ASSERT_OK(monarch);
  StageAll(**monarch);
  ASSERT_EQ(40u, local_->TotalBytes());

  EXPECT_EQ(4u, monarch.value()->CleanupStagedCopies());
  EXPECT_EQ(0u, local_->TotalBytes());
  EXPECT_EQ(0u, monarch.value()->Stats().levels[0].occupancy_bytes);
}

TEST_F(CleanupTest, CleanupReturnsTheLowRetentionShare) {
  // A scan tenant's copies count toward the gauge scan_stage_cap_bytes
  // is checked against; cleanup must hand their share back with them, or
  // the scan tenant is refused later with nothing resident.
  qos::QosOptions qos;
  qos.enabled = true;
  qos.scan_stage_cap_bytes = 40;
  auto monarch = Build(false, 4, qos);
  ASSERT_OK(monarch);
  qos::TenantContext scanner;
  scanner.io_class = qos::IoClass::kScan;
  scanner.low_retention = true;
  {
    qos::ScopedTenant scope(scanner);
    StageAll(**monarch);
  }
  ASSERT_EQ(40u,
            monarch.value()->Stats().placement.low_retention_resident_bytes);

  EXPECT_EQ(4u, monarch.value()->CleanupStagedCopies());
  EXPECT_EQ(0u,
            monarch.value()->Stats().placement.low_retention_resident_bytes);
  for (int i = 0; i < 4; ++i) {
    const std::string name = "data/f" + std::to_string(i);
    const FileInfoPtr info = monarch.value()->metadata().Lookup(name);
    ASSERT_NE(nullptr, info) << name;
    EXPECT_FALSE(info->low_retention) << name;
  }
}

TEST_F(CleanupTest, ReadsAfterCleanupFallBackToPfs) {
  auto monarch = Build(false);
  ASSERT_OK(monarch);
  StageAll(**monarch);
  monarch.value()->CleanupStagedCopies();

  std::vector<std::byte> buf(10);
  const auto pfs_reads_before =
      monarch.value()->Stats().levels[1].reads;
  ASSERT_OK(monarch.value()->Read("data/f0", 0, buf));
  EXPECT_EQ(pfs_reads_before + 1,
            monarch.value()->Stats().levels[1].reads)
      << "files reverted to PFS-resident must be served by the PFS";
}

TEST_F(CleanupTest, CleanupIsIdempotent) {
  auto monarch = Build(false);
  ASSERT_OK(monarch);
  StageAll(**monarch);
  EXPECT_EQ(4u, monarch.value()->CleanupStagedCopies());
  EXPECT_EQ(0u, monarch.value()->CleanupStagedCopies());
}

TEST_F(CleanupTest, ShutdownHonoursCleanupFlag) {
  auto monarch = Build(/*cleanup_on_shutdown=*/true);
  ASSERT_OK(monarch);
  StageAll(**monarch);
  ASSERT_GT(local_->TotalBytes(), 0u);
  monarch.value()->Shutdown();
  EXPECT_EQ(0u, local_->TotalBytes())
      << "ephemeral mode must leave the scratch tier clean";
}

TEST_F(CleanupTest, ShutdownLeavesCopiesWithoutFlag) {
  auto monarch = Build(/*cleanup_on_shutdown=*/false);
  ASSERT_OK(monarch);
  StageAll(**monarch);
  monarch.value()->Shutdown();
  EXPECT_EQ(40u, local_->TotalBytes());
}

TEST_F(CleanupTest, CleanupSkipsUnplacedFiles) {
  auto monarch = Build(false);
  ASSERT_OK(monarch);
  // Stage only two of four files.
  std::vector<std::byte> buf(10);
  ASSERT_OK(monarch.value()->Read("data/f0", 0, buf));
  ASSERT_OK(monarch.value()->Read("data/f1", 0, buf));
  monarch.value()->DrainPlacements();
  EXPECT_EQ(2u, monarch.value()->CleanupStagedCopies());
}

}  // namespace
}  // namespace monarch::core

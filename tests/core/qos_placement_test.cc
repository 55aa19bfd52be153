// Scan resistance + tenant threading through the staging pipeline
// (ISSUE 10): a low-retention (scan) tenant can evict other scan copies
// but NEVER a demand working set; demand tenants reclaim scan-held
// space first; a scan-staging cap bounds how much cache a full-dataset
// pass may occupy.
#include "core/placement_handler.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "../test_support.h"
#include "qos/tenant.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;

qos::TenantContext Trainer() {
  qos::TenantContext tenant;
  tenant.tenant_id = 1;
  tenant.name = "trainer";
  tenant.io_class = qos::IoClass::kTraining;
  return tenant;
}

qos::TenantContext Scanner() {
  qos::TenantContext tenant;
  tenant.tenant_id = 2;
  tenant.name = "scanner";
  tenant.io_class = qos::IoClass::kScan;
  tenant.low_retention = true;
  return tenant;
}

class QosPlacementTest : public ::testing::Test {
 protected:
  void Build(std::uint64_t quota, PlacementOptions options = {}) {
    options.qos.enabled = true;
    options.enable_eviction = true;
    options.num_threads = 2;
    pfs_engine_ = std::make_shared<storage::MemoryEngine>("pfs");
    std::vector<StorageDriverPtr> drivers;
    cache_engine_ = std::make_shared<storage::MemoryEngine>("tier0");
    drivers.push_back(
        std::make_unique<StorageDriver>("tier0", cache_engine_, quota, false));
    drivers.push_back(
        std::make_unique<StorageDriver>("pfs", pfs_engine_, 0, true));
    hierarchy_ =
        std::move(StorageHierarchy::Create(std::move(drivers))).value();
    handler_ = std::make_unique<PlacementHandler>(
        *hierarchy_, metadata_, MakeFirstFitPolicy(), options);
  }

  FileInfoPtr AddPfsFile(const std::string& name, const std::string& data) {
    EXPECT_TRUE(pfs_engine_->Write(name, Bytes(data)).ok());
    metadata_.Register(name, data.size(), hierarchy_->pfs_level());
    return metadata_.Lookup(name);
  }

  /// Schedule a demand placement with `tenant` installed as the ambient
  /// submitter (the pipeline snapshots it into the task) and drain.
  void StageAs(const qos::TenantContext& tenant, const FileInfoPtr& file) {
    ASSERT_TRUE(file->TryBeginFetch());
    qos::ScopedTenant scope(tenant);
    handler_->SchedulePlacement(file, {});
    handler_->Drain();
  }

  storage::StorageEnginePtr pfs_engine_;
  storage::StorageEnginePtr cache_engine_;
  std::unique_ptr<StorageHierarchy> hierarchy_;
  MetadataContainer metadata_;
  std::unique_ptr<PlacementHandler> handler_;
};

TEST_F(QosPlacementTest, ScanCopiesAreMarkedLowRetention) {
  Build(100);
  auto file = AddPfsFile("scan-file", "0123456789");
  StageAs(Scanner(), file);

  EXPECT_EQ(PlacementState::kPlaced, file->state.load());
  EXPECT_TRUE(file->low_retention.load());
  EXPECT_EQ(10u, handler_->Stats().low_retention_resident_bytes);
}

TEST_F(QosPlacementTest, TrainerCopiesAreNotLowRetention) {
  Build(100);
  auto file = AddPfsFile("train-file", "0123456789");
  StageAs(Trainer(), file);

  EXPECT_EQ(PlacementState::kPlaced, file->state.load());
  EXPECT_FALSE(file->low_retention.load());
  EXPECT_EQ(0u, handler_->Stats().low_retention_resident_bytes);
}

TEST_F(QosPlacementTest, ScanCannotEvictTrainingWorkingSet) {
  Build(15);
  auto working_set = AddPfsFile("train-file", "0123456789");
  working_set->last_access.store(1);
  StageAs(Trainer(), working_set);
  ASSERT_EQ(PlacementState::kPlaced, working_set->state.load());

  auto scan_file = AddPfsFile("scan-file", "0123456789");
  scan_file->last_access.store(2);
  StageAs(Scanner(), scan_file);

  // The trainer's copy survives; the scan's placement is refused (and
  // stays retryable), and the cross-class canary never fires.
  EXPECT_EQ(PlacementState::kPlaced, working_set->state.load());
  EXPECT_NE(PlacementState::kPlaced, scan_file->state.load());
  const auto stats = handler_->Stats();
  EXPECT_EQ(0u, stats.evictions);
  EXPECT_EQ(0u, stats.cross_class_evictions);
  EXPECT_EQ(10u, hierarchy_->Level(0).occupancy_bytes());
}

TEST_F(QosPlacementTest, ScanMayEvictOtherScanCopies) {
  Build(15);
  auto first = AddPfsFile("scan-a", "0123456789");
  first->last_access.store(1);
  StageAs(Scanner(), first);
  ASSERT_EQ(PlacementState::kPlaced, first->state.load());

  auto second = AddPfsFile("scan-b", "0123456789");
  second->last_access.store(2);
  StageAs(Scanner(), second);

  EXPECT_EQ(PlacementState::kPlaced, second->state.load());
  EXPECT_EQ(PlacementState::kPfsOnly, first->state.load());
  const auto stats = handler_->Stats();
  EXPECT_EQ(1u, stats.evictions);
  EXPECT_EQ(0u, stats.cross_class_evictions);
  // The evicted copy's bytes left the low-retention gauge; the new
  // copy's bytes replaced them.
  EXPECT_EQ(10u, stats.low_retention_resident_bytes);
}

TEST_F(QosPlacementTest, TrainerReclaimsScanSpaceFirst) {
  Build(25);
  auto old_train = AddPfsFile("train-old", "0123456789");
  old_train->last_access.store(1);  // LRU alone would evict this first
  StageAs(Trainer(), old_train);
  auto scan_file = AddPfsFile("scan-file", "0123456789");
  scan_file->last_access.store(5);  // most recently used resident
  StageAs(Scanner(), scan_file);
  ASSERT_EQ(PlacementState::kPlaced, old_train->state.load());
  ASSERT_EQ(PlacementState::kPlaced, scan_file->state.load());

  auto new_train = AddPfsFile("train-new", "0123456789");
  new_train->last_access.store(9);
  StageAs(Trainer(), new_train);

  // Low-retention victims are tried before LRU order: the scan copy
  // goes even though the old training copy is least recently used.
  EXPECT_EQ(PlacementState::kPlaced, new_train->state.load());
  EXPECT_EQ(PlacementState::kPlaced, old_train->state.load());
  EXPECT_EQ(PlacementState::kPfsOnly, scan_file->state.load());
  EXPECT_EQ(0u, handler_->Stats().low_retention_resident_bytes);
}

TEST_F(QosPlacementTest, ScanStageCapRefusesFurtherStagings) {
  PlacementOptions options;
  options.qos.scan_stage_cap_bytes = 12;
  Build(100, options);

  auto first = AddPfsFile("scan-a", "0123456789");
  StageAs(Scanner(), first);
  ASSERT_EQ(PlacementState::kPlaced, first->state.load());

  auto second = AddPfsFile("scan-b", "0123456789");
  StageAs(Scanner(), second);

  // 10 resident + 10 new > 12: the second staging is refused without
  // touching the tier, but stays retryable (kPfsOnly, stage_refused
  // latched so the read path serves from the PFS without re-queuing).
  EXPECT_EQ(PlacementState::kPfsOnly, second->state.load());
  EXPECT_TRUE(second->stage_refused.load());
  const auto stats = handler_->Stats();
  EXPECT_GE(stats.scan_stage_refusals, 1u);
  EXPECT_EQ(10u, stats.low_retention_resident_bytes);
  EXPECT_EQ(10u, hierarchy_->Level(0).occupancy_bytes());
}

TEST_F(QosPlacementTest, TrainingStagingsIgnoreTheScanCap) {
  PlacementOptions options;
  options.qos.scan_stage_cap_bytes = 5;  // smaller than any file here
  Build(100, options);

  auto file = AddPfsFile("train-file", "0123456789");
  StageAs(Trainer(), file);

  EXPECT_EQ(PlacementState::kPlaced, file->state.load());
  EXPECT_EQ(0u, handler_->Stats().scan_stage_refusals);
}

TEST_F(QosPlacementTest, QueuesDrainAcrossAllClasses) {
  Build(200);
  auto a = AddPfsFile("a", "0123456789");
  auto b = AddPfsFile("b", "0123456789");
  StageAs(Trainer(), a);
  StageAs(Scanner(), b);

  const auto stats = handler_->Stats();
  EXPECT_EQ(2u, stats.completed);
  EXPECT_EQ(0u, stats.queue_depth_interactive);
  EXPECT_EQ(0u, stats.queue_depth_training);
  EXPECT_EQ(0u, stats.queue_depth_scan);
  EXPECT_EQ(0u, stats.queue_depth_drain);
  EXPECT_EQ(0u, stats.queue_depth_demand);
}

}  // namespace
}  // namespace monarch::core

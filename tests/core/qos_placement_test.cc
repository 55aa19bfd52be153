// Scan resistance + tenant threading through the staging pipeline
// (ISSUE 10): a low-retention (scan) tenant can evict other scan copies
// but NEVER a demand working set; demand tenants reclaim scan-held
// space first; a scan-staging cap bounds how much cache a full-dataset
// pass may occupy.
#include "core/placement_handler.h"

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "../test_support.h"
#include "stage_file.h"
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
  void Build(std::uint64_t quota, PlacementOptions options = {},
             PeerViewPtr peer_view = nullptr) {
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
        *hierarchy_, metadata_, MakeFirstFitPolicy(), options,
        ResilienceOptions{}, std::move(peer_view));
  }

  FileInfoPtr AddPfsFile(const std::string& name, const std::string& data) {
    EXPECT_TRUE(pfs_engine_->Write(name, Bytes(data)).ok());
    metadata_.Register(name, data.size());
    return metadata_.Lookup(name);
  }

  /// Schedule a demand placement with `tenant` installed as the ambient
  /// submitter (the pipeline snapshots it into the task) and drain.
  void StageAs(const qos::TenantContext& tenant, const FileInfoPtr& file) {
    qos::ScopedTenant scope(tenant);
    ASSERT_TRUE(StageFile(*handler_, file));
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
  for (const std::uint64_t depth : stats.queue_depth) EXPECT_EQ(0u, depth);
}

// ---------------------------------------------------------------------------
// One drop path: eviction, quarantine, cleanup and a vanished object all
// drop a placed file's runs through the handler's chunk drop path.

/// Records the drop notifications the cluster directory would receive.
class RecordingPeerView final : public PeerView {
 public:
  bool HasRemoteCopy(const std::string&) override { return false; }
  bool ShouldStageLocally(const std::string&) override { return true; }
  void OnStaged(const std::string&, int) override {}
  void OnDropped(const std::string& name) override {
    std::lock_guard lock(mu_);
    dropped_.push_back(name);
  }
  void SetStageEntry(StageEntry) override {}
  bool RequestOwnerStage(const std::string&) override { return false; }
  bool AwaitRemoteCopy(const std::string&) override { return false; }
  void OnCopyBegin(const std::string&) override {}
  void OnCopyEnd(const std::string&) override {}

  std::vector<std::string> dropped() const {
    std::lock_guard lock(mu_);
    return dropped_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> dropped_;
};

enum class Drop { kEvict, kQuarantine, kCleanup, kVanished };

/// (how the copy is dropped, whether a reader holds a pin on it)
class CopyDropTest
    : public QosPlacementTest,
      public ::testing::WithParamInterface<std::tuple<Drop, bool>> {};

TEST_P(CopyDropTest, DropsThePlacedCopyOnce) {
  const auto [drop, pinned] = GetParam();
  auto peers = std::make_shared<RecordingPeerView>();
  PlacementOptions options;
  options.qos.scan_stage_cap_bytes = 10;
  Build(10, options, peers);

  auto scan = AddPfsFile("scan", "0123456789");
  StageAs(Scanner(), scan);
  ASSERT_EQ(PlacementState::kPlaced, scan->state.load());
  ASSERT_EQ(10u, handler_->Stats().low_retention_resident_bytes);
  if (pinned) scan->read_pins.fetch_add(1);

  switch (drop) {
    case Drop::kEvict:
      // The full tier only takes the trainer's file by evicting.
      StageAs(Trainer(), AddPfsFile("train", "01234"));
      break;
    case Drop::kQuarantine:
      handler_->DropChunkRun(scan, 0, /*corrupt=*/true);
      break;
    case Drop::kCleanup:
      handler_->CleanupCopy(scan);
      break;
    case Drop::kVanished:
      // The object went behind the driver; the quota must come back all
      // the same.
      ASSERT_OK(cache_engine_->Delete("scan#c0"));
      handler_->DropChunkRun(scan, 0, /*corrupt=*/false);
      break;
  }

  if (pinned && drop == Drop::kEvict) {
    // Only eviction waits for the reader mid-flight on the copy.
    EXPECT_EQ(PlacementState::kPlaced, scan->state.load());
    EXPECT_EQ(0, scan->chunk_map()->tier());
    EXPECT_EQ(10u, hierarchy_->Level(0).occupancy_bytes());
    EXPECT_TRUE(peers->dropped().empty());
    EXPECT_EQ(10u, handler_->Stats().low_retention_resident_bytes);
    EXPECT_EQ(1u, handler_->Stats().eviction_pinned_skips);
    return;
  }
  EXPECT_NE(PlacementState::kPlaced, scan->state.load());
  EXPECT_EQ(-1, scan->chunk_map()->tier());
  auto exists = cache_engine_->Exists("scan#c0");
  ASSERT_OK(exists);
  EXPECT_FALSE(exists.value());
  EXPECT_EQ(drop == Drop::kEvict ? 5u : 0u,
            hierarchy_->Level(0).occupancy_bytes());
  EXPECT_EQ(std::vector<std::string>{"scan"}, peers->dropped());
  EXPECT_FALSE(scan->low_retention.load());
  EXPECT_EQ(0u, handler_->Stats().low_retention_resident_bytes);

  // The dropped copy's share is back: a fresh scan staging passes the
  // scan cap again.
  auto fresh = AddPfsFile("fresh", "abcde");
  StageAs(Scanner(), fresh);
  EXPECT_EQ(PlacementState::kPlaced, fresh->state.load());
  EXPECT_EQ(0u, handler_->Stats().scan_stage_refusals);
  EXPECT_EQ(5u, handler_->Stats().low_retention_resident_bytes);
}

std::string DropCaseName(
    const ::testing::TestParamInfo<std::tuple<Drop, bool>>& param_info) {
  const auto [drop, pinned] = param_info.param;
  const char* name = drop == Drop::kEvict        ? "evict"
                     : drop == Drop::kQuarantine ? "quarantine"
                     : drop == Drop::kCleanup    ? "cleanup"
                                                 : "vanished";
  return std::string(name) + (pinned ? "_pinned" : "");
}

INSTANTIATE_TEST_SUITE_P(
    PlacementHandler, CopyDropTest,
    ::testing::Combine(::testing::Values(Drop::kEvict, Drop::kQuarantine,
                                         Drop::kCleanup, Drop::kVanished),
                       ::testing::Bool()),
    DropCaseName);

}  // namespace
}  // namespace monarch::core

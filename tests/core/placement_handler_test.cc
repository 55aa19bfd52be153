#include "core/placement_handler.h"

#include <gtest/gtest.h>

#include <memory>

#include "../test_support.h"
#include "stage_file.h"
#include "storage/faulty_engine.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;

class PlacementHandlerTest : public ::testing::Test {
 protected:
  void Build(std::vector<std::uint64_t> quotas,
             PlacementOptions options = {},
             storage::StorageEnginePtr pfs_engine = nullptr) {
    pfs_engine_ = pfs_engine ? std::move(pfs_engine)
                             : std::make_shared<storage::MemoryEngine>("pfs");
    std::vector<StorageDriverPtr> drivers;
    cache_engines_.clear();
    for (std::size_t i = 0; i < quotas.size(); ++i) {
      auto engine = std::make_shared<storage::MemoryEngine>(
          "tier" + std::to_string(i));
      cache_engines_.push_back(engine);
      drivers.push_back(std::make_unique<StorageDriver>(
          "tier" + std::to_string(i), engine, quotas[i], false));
    }
    drivers.push_back(
        std::make_unique<StorageDriver>("pfs", pfs_engine_, 0, true));
    hierarchy_ = std::move(StorageHierarchy::Create(std::move(drivers))).value();
    options.num_threads = 2;
    handler_ = std::make_unique<PlacementHandler>(
        *hierarchy_, metadata_, MakeFirstFitPolicy(), options);
  }

  /// Put a file on the simulated PFS and register it.
  FileInfoPtr AddPfsFile(const std::string& name, const std::string& data) {
    EXPECT_TRUE(pfs_engine_->Write(name, Bytes(data)).ok());
    metadata_.Register(name, data.size());
    return metadata_.Lookup(name);
  }

  storage::StorageEnginePtr pfs_engine_;
  std::vector<storage::StorageEnginePtr> cache_engines_;
  std::unique_ptr<StorageHierarchy> hierarchy_;
  MetadataContainer metadata_;
  std::unique_ptr<PlacementHandler> handler_;
};

TEST_F(PlacementHandlerTest, PlacesFileWithoutContent) {
  Build({100});
  auto file = AddPfsFile("f", "0123456789");
  ASSERT_TRUE(StageFile(*handler_, file));
  handler_->Drain();

  EXPECT_EQ(PlacementState::kPlaced, file->state.load());
  EXPECT_EQ(0, file->chunk_map()->tier());
  EXPECT_EQ(10u, hierarchy_->Level(0).occupancy_bytes());

  // The staged copy really exists on the tier engine with exact bytes.
  std::vector<std::byte> buf(10);
  auto read = cache_engines_[0]->Read("f#c0", 0, buf);
  ASSERT_OK(read);
  EXPECT_EQ("0123456789", monarch::testing::Text(buf));

  const auto stats = handler_->Stats();
  EXPECT_EQ(1u, stats.scheduled);
  EXPECT_EQ(1u, stats.completed);
  EXPECT_EQ(10u, stats.bytes_staged);
}

TEST_F(PlacementHandlerTest, UsesProvidedContentWithoutPfsRead) {
  Build({100});
  auto file = AddPfsFile("f", "abcdefgh");
  const auto before = pfs_engine_->Stats().Snapshot();

  ASSERT_TRUE(StageFile(*handler_, file, Bytes("abcdefgh")));
  handler_->Drain();

  EXPECT_EQ(PlacementState::kPlaced, file->state.load());
  const auto delta = pfs_engine_->Stats().Snapshot() - before;
  EXPECT_EQ(0u, delta.read_ops)
      << "content supplied by the read path must not trigger a PFS read";
}

TEST_F(PlacementHandlerTest, NoSpaceMarksUnplaceable) {
  Build({5});
  auto file = AddPfsFile("f", "too-big-for-tier");
  ASSERT_TRUE(StageFile(*handler_, file));
  handler_->Drain();

  EXPECT_EQ(PlacementState::kUnplaceable, file->state.load());
  EXPECT_EQ(-1, file->chunk_map()->tier());
  EXPECT_EQ(1u, handler_->Stats().rejected_no_space);
  EXPECT_EQ(0u, hierarchy_->Level(0).occupancy_bytes());
}

TEST_F(PlacementHandlerTest, SpillsToSecondTierWhenFirstFull) {
  Build({12, 100});
  auto f1 = AddPfsFile("f1", "0123456789");  // 10 bytes -> tier0
  auto f2 = AddPfsFile("f2", "0123456789");  // tier0 full -> tier1
  ASSERT_TRUE(StageFile(*handler_, f1));
  handler_->Drain();
  ASSERT_TRUE(StageFile(*handler_, f2));
  handler_->Drain();

  EXPECT_EQ(0, f1->chunk_map()->tier());
  EXPECT_EQ(1, f2->chunk_map()->tier());
}

TEST_F(PlacementHandlerTest, PfsReadFailureReleasesReservationAndRetries) {
  auto inner = std::make_shared<storage::MemoryEngine>("pfs");
  auto faulty =
      std::make_shared<storage::FaultyEngine>(inner, storage::FaultyEngine::FaultSpec{});
  Build({100}, {}, faulty);
  auto file = AddPfsFile("f", "0123456789");

  // A single transient failure is absorbed by the driver's retry layer
  // (core/resilience.h) and staging succeeds on the spot; to make the
  // placement itself fail the fault has to outlast the attempt budget.
  faulty->FailNextReads(100);
  ASSERT_TRUE(StageFile(*handler_, file));
  handler_->Drain();

  EXPECT_EQ(PlacementState::kPfsOnly, file->state.load())
      << "transient failure must return the file to the retryable state";
  EXPECT_EQ(0u, hierarchy_->Level(0).occupancy_bytes())
      << "failed placement must release its reservation";
  EXPECT_EQ(1u, handler_->Stats().failed);
  EXPECT_EQ(1u, handler_->Stats().retries);

  // A later attempt succeeds once the fault clears.
  faulty->FailNextReads(0);
  ASSERT_TRUE(StageFile(*handler_, file));
  handler_->Drain();
  EXPECT_EQ(PlacementState::kPlaced, file->state.load());
}

TEST_F(PlacementHandlerTest, StopSchedulingAbortsNewPlacements) {
  Build({100});
  auto file = AddPfsFile("f", "abc");
  handler_->StopScheduling();
  ASSERT_TRUE(StageFile(*handler_, file));
  handler_->Drain();
  EXPECT_EQ(PlacementState::kPfsOnly, file->state.load());
  EXPECT_EQ(0u, handler_->Stats().scheduled);
}

TEST_F(PlacementHandlerTest, ManyFilesAllPlacedConcurrently) {
  Build({100000});
  std::vector<FileInfoPtr> files;
  for (int i = 0; i < 50; ++i) {
    auto file =
        AddPfsFile("f" + std::to_string(i), std::string(100, 'a' + i % 26));
    ASSERT_TRUE(StageFile(*handler_, file));
    files.push_back(std::move(file));
  }
  handler_->Drain();
  for (const auto& file : files) {
    EXPECT_EQ(PlacementState::kPlaced, file->state.load()) << file->name;
  }
  EXPECT_EQ(50u * 100, hierarchy_->Level(0).occupancy_bytes());
  EXPECT_EQ(50u, handler_->Stats().completed);
}

TEST_F(PlacementHandlerTest, EvictionDisabledByDefault) {
  Build({15});
  auto f1 = AddPfsFile("f1", "0123456789");
  ASSERT_TRUE(StageFile(*handler_, f1));
  handler_->Drain();
  ASSERT_EQ(PlacementState::kPlaced, f1->state.load());

  auto f2 = AddPfsFile("f2", "0123456789");
  ASSERT_TRUE(StageFile(*handler_, f2));
  handler_->Drain();

  // The paper's no-eviction policy: f1 stays, f2 is unplaceable.
  EXPECT_EQ(PlacementState::kPlaced, f1->state.load());
  EXPECT_EQ(PlacementState::kUnplaceable, f2->state.load());
  EXPECT_EQ(0u, handler_->Stats().evictions);
}

TEST_F(PlacementHandlerTest, EvictionModeMakesRoomLru) {
  PlacementOptions options;
  options.enable_eviction = true;
  Build({15}, options);

  auto f1 = AddPfsFile("f1", "0123456789");
  f1->last_access.store(1);
  ASSERT_TRUE(StageFile(*handler_, f1));
  handler_->Drain();
  ASSERT_EQ(PlacementState::kPlaced, f1->state.load());

  auto f2 = AddPfsFile("f2", "0123456789");
  f2->last_access.store(2);
  ASSERT_TRUE(StageFile(*handler_, f2));
  handler_->Drain();

  // f1 (older access) was evicted to admit f2.
  EXPECT_EQ(PlacementState::kPlaced, f2->state.load());
  EXPECT_EQ(0, f2->chunk_map()->tier());
  EXPECT_EQ(PlacementState::kPfsOnly, f1->state.load());
  EXPECT_EQ(-1, f1->chunk_map()->tier());
  EXPECT_EQ(1u, handler_->Stats().evictions);
  EXPECT_EQ(10u, hierarchy_->Level(0).occupancy_bytes());
}

}  // namespace
}  // namespace monarch::core

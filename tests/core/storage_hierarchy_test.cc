#include "core/storage_hierarchy.h"

#include <gtest/gtest.h>

#include <memory>

#include "../test_support.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

StorageDriverPtr Driver(const std::string& name, std::uint64_t quota,
                        bool read_only) {
  return std::make_unique<StorageDriver>(
      name, std::make_shared<storage::MemoryEngine>(name), quota, read_only);
}

TEST(StorageHierarchyTest, CreateValidTwoLevel) {
  std::vector<StorageDriverPtr> drivers;
  drivers.push_back(Driver("ssd", 100, false));
  drivers.push_back(Driver("pfs", 0, true));
  auto hierarchy = StorageHierarchy::Create(std::move(drivers));
  ASSERT_OK(hierarchy);
  EXPECT_EQ(2u, hierarchy.value()->num_levels());
  EXPECT_EQ(1, hierarchy.value()->pfs_level());
  EXPECT_EQ("ssd", hierarchy.value()->Level(0).name());
  EXPECT_EQ("pfs", hierarchy.value()->Pfs().name());
}

TEST(StorageHierarchyTest, RejectsSingleLevel) {
  std::vector<StorageDriverPtr> drivers;
  drivers.push_back(Driver("pfs", 0, true));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     StorageHierarchy::Create(std::move(drivers)));
}

TEST(StorageHierarchyTest, RejectsWritableLastLevel) {
  std::vector<StorageDriverPtr> drivers;
  drivers.push_back(Driver("ssd", 100, false));
  drivers.push_back(Driver("pfs", 0, false));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     StorageHierarchy::Create(std::move(drivers)));
}

TEST(StorageHierarchyTest, RejectsReadOnlyCacheTier) {
  std::vector<StorageDriverPtr> drivers;
  drivers.push_back(Driver("frozen", 100, true));
  drivers.push_back(Driver("pfs", 0, true));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     StorageHierarchy::Create(std::move(drivers)));
}

TEST(StorageHierarchyTest, ThreeLevelHierarchy) {
  // The §VI "more storage layers" shape: RAM + SSD + PFS.
  std::vector<StorageDriverPtr> drivers;
  drivers.push_back(Driver("ram", 50, false));
  drivers.push_back(Driver("ssd", 100, false));
  drivers.push_back(Driver("pfs", 0, true));
  auto hierarchy = StorageHierarchy::Create(std::move(drivers));
  ASSERT_OK(hierarchy);
  EXPECT_EQ(3u, hierarchy.value()->num_levels());
  EXPECT_EQ(2, hierarchy.value()->pfs_level());
}

TEST(StorageHierarchyTest, AcceptsPeerLevelAbovePfs) {
  // ISSUE 4 shape: local cache, read-only peer tier, PFS.
  std::vector<StorageDriverPtr> drivers;
  drivers.push_back(Driver("ssd", 100, false));
  drivers.push_back(Driver("peer", 0, true));
  drivers.push_back(Driver("pfs", 0, true));
  auto hierarchy = StorageHierarchy::Create(std::move(drivers));
  ASSERT_OK(hierarchy);
  EXPECT_EQ(3u, hierarchy.value()->num_levels());
  EXPECT_EQ(2, hierarchy.value()->pfs_level());
  EXPECT_EQ(1, hierarchy.value()->peer_level());
}

TEST(StorageHierarchyTest, PeerLevelAbsentByDefault) {
  std::vector<StorageDriverPtr> drivers;
  drivers.push_back(Driver("ssd", 100, false));
  drivers.push_back(Driver("pfs", 0, true));
  auto hierarchy = StorageHierarchy::Create(std::move(drivers));
  ASSERT_OK(hierarchy);
  EXPECT_EQ(-1, hierarchy.value()->peer_level());
}

TEST(StorageHierarchyTest, RejectsPeerLevelWithoutWritableTier) {
  // A peer tier may not stand in for the mandatory writable cache level.
  std::vector<StorageDriverPtr> drivers;
  drivers.push_back(Driver("peer", 0, true));
  drivers.push_back(Driver("pfs", 0, true));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     StorageHierarchy::Create(std::move(drivers)));
}

TEST(StorageHierarchyTest, RejectsReadOnlyLevelBelowPeerSlot) {
  // Read-only is only legal directly above the PFS, nowhere lower.
  std::vector<StorageDriverPtr> drivers;
  drivers.push_back(Driver("frozen", 0, true));
  drivers.push_back(Driver("ssd", 100, false));
  drivers.push_back(Driver("pfs", 0, true));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     StorageHierarchy::Create(std::move(drivers)));
}

TEST(StorageHierarchyTest, TotalWritableFreeBytesSkipsPeerLevel) {
  std::vector<StorageDriverPtr> drivers;
  drivers.push_back(Driver("ssd", 100, false));
  drivers.push_back(Driver("peer", 0, true));
  drivers.push_back(Driver("pfs", 0, true));
  auto hierarchy = StorageHierarchy::Create(std::move(drivers));
  ASSERT_OK(hierarchy);
  EXPECT_EQ(100u, hierarchy.value()->TotalWritableFreeBytes());
}

TEST(StorageHierarchyTest, TotalWritableFreeBytesExcludesPfs) {
  std::vector<StorageDriverPtr> drivers;
  drivers.push_back(Driver("ram", 50, false));
  drivers.push_back(Driver("ssd", 100, false));
  drivers.push_back(Driver("pfs", 0, true));
  auto hierarchy = StorageHierarchy::Create(std::move(drivers));
  ASSERT_OK(hierarchy);
  EXPECT_EQ(150u, hierarchy.value()->TotalWritableFreeBytes());
  ASSERT_TRUE(hierarchy.value()->Level(0).Reserve(20));
  EXPECT_EQ(130u, hierarchy.value()->TotalWritableFreeBytes());
}

}  // namespace
}  // namespace monarch::core

#include "core/placement_policy.h"

#include <gtest/gtest.h>

#include <memory>

#include "../test_support.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

std::unique_ptr<StorageHierarchy> MakeHierarchy(
    std::vector<std::uint64_t> quotas) {
  std::vector<StorageDriverPtr> drivers;
  for (std::size_t i = 0; i < quotas.size(); ++i) {
    drivers.push_back(std::make_unique<StorageDriver>(
        "tier" + std::to_string(i),
        std::make_shared<storage::MemoryEngine>(), quotas[i],
        /*read_only=*/false));
  }
  drivers.push_back(std::make_unique<StorageDriver>(
      "pfs", std::make_shared<storage::MemoryEngine>(), 0,
      /*read_only=*/true));
  auto hierarchy = StorageHierarchy::Create(std::move(drivers));
  EXPECT_TRUE(hierarchy.ok());
  return std::move(hierarchy).value();
}

TEST(FirstFitPolicyTest, FillsLevelZeroFirst) {
  auto hierarchy = MakeHierarchy({100, 100});
  FirstFitPolicy policy;
  // Level 0 takes files until full.
  EXPECT_EQ(0, policy.PickLevel(*hierarchy, 60).value());
  EXPECT_EQ(0, policy.PickLevel(*hierarchy, 40).value());
  // Level 0 is exactly full: the next file spills to level 1.
  EXPECT_EQ(1, policy.PickLevel(*hierarchy, 10).value());
  EXPECT_EQ(60u, hierarchy->Level(1).occupancy_bytes() + 50);
}

TEST(FirstFitPolicyTest, ReservesQuotaAtomically) {
  auto hierarchy = MakeHierarchy({100});
  FirstFitPolicy policy;
  ASSERT_TRUE(policy.PickLevel(*hierarchy, 70).has_value());
  EXPECT_EQ(70u, hierarchy->Level(0).occupancy_bytes());
}

TEST(FirstFitPolicyTest, NulloptWhenNothingFits) {
  auto hierarchy = MakeHierarchy({50, 30});
  FirstFitPolicy policy;
  EXPECT_FALSE(policy.PickLevel(*hierarchy, 60).has_value());
  EXPECT_EQ(0u, hierarchy->Level(0).occupancy_bytes())
      << "a failed pick must not leave reservations behind";
  EXPECT_EQ(0u, hierarchy->Level(1).occupancy_bytes());
}

TEST(FirstFitPolicyTest, NeverPicksThePfsLevel) {
  auto hierarchy = MakeHierarchy({10});
  FirstFitPolicy policy;
  // File larger than every writable tier: must return nullopt rather than
  // "placing" on the unlimited PFS level.
  EXPECT_FALSE(policy.PickLevel(*hierarchy, 11).has_value());
}

TEST(FirstFitPolicyTest, SkipsFullUpperTier) {
  auto hierarchy = MakeHierarchy({100, 200});
  FirstFitPolicy policy;
  ASSERT_TRUE(hierarchy->Level(0).Reserve(95));
  EXPECT_EQ(1, policy.PickLevel(*hierarchy, 50).value());
  // Small files can still squeeze into level 0's remainder.
  EXPECT_EQ(0, policy.PickLevel(*hierarchy, 5).value());
}

TEST(PolicyFactoryTest, NamesAreStable) {
  EXPECT_EQ("first-fit", MakeFirstFitPolicy()->Name());
  EXPECT_EQ("lru", MakeLruPolicy()->Name());
  EXPECT_EQ("hotspot", MakeHotspotPolicy()->Name());
}

}  // namespace
}  // namespace monarch::core

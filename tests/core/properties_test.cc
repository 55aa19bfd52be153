// Property-based suites: placement invariants checked across a
// parameterised sweep of (quota ratio, file count, tier count, thread
// count) combinations, each driving a full first-epoch workload against
// the real middleware.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <thread>

#include "../test_support.h"
#include "core/monarch.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;

struct PropertyCase {
  double quota_ratio;   ///< local quota / dataset bytes
  int num_files;
  int cache_tiers;      ///< writable levels
  int placement_threads;
  int reader_threads;
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  const auto& c = info.param;
  return "q" + std::to_string(static_cast<int>(c.quota_ratio * 100)) +
         "_f" + std::to_string(c.num_files) + "_t" +
         std::to_string(c.cache_tiers) + "_p" +
         std::to_string(c.placement_threads) + "_r" +
         std::to_string(c.reader_threads);
}

class PlacementPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  static constexpr std::uint64_t kFileSize = 256;

  void SetUp() override {
    const PropertyCase& param = GetParam();
    pfs_ = std::make_shared<storage::MemoryEngine>("pfs");
    for (int i = 0; i < param.num_files; ++i) {
      std::string content(kFileSize, static_cast<char>('A' + i % 26));
      ASSERT_OK(pfs_->Write("data/f" + std::to_string(i), Bytes(content)));
    }
    const auto dataset_bytes =
        static_cast<std::uint64_t>(param.num_files) * kFileSize;
    const auto total_quota = static_cast<std::uint64_t>(
        param.quota_ratio * static_cast<double>(dataset_bytes));

    MonarchConfig config;
    for (int t = 0; t < param.cache_tiers; ++t) {
      auto engine = std::make_shared<storage::MemoryEngine>(
          "cache" + std::to_string(t));
      cache_engines_.push_back(engine);
      config.cache_tiers.push_back(TierSpec{
          "cache" + std::to_string(t), engine,
          std::max<std::uint64_t>(
              1, total_quota / static_cast<std::uint64_t>(param.cache_tiers))});
    }
    config.pfs = TierSpec{"pfs", pfs_, 0};
    config.dataset_dir = "data";
    config.placement.num_threads = param.placement_threads;
    auto monarch = Monarch::Create(std::move(config));
    ASSERT_OK(monarch);
    monarch_ = std::move(monarch).value();
  }

  /// One full "epoch": every file read once, in parallel.
  void RunEpoch() {
    const PropertyCase& param = GetParam();
    std::vector<std::thread> threads;
    for (int t = 0; t < param.reader_threads; ++t) {
      threads.emplace_back([this, t, &param] {
        std::vector<std::byte> buf(kFileSize);
        for (int i = t; i < param.num_files; i += param.reader_threads) {
          auto read =
              monarch_->Read("data/f" + std::to_string(i), 0, buf);
          ASSERT_TRUE(read.ok()) << read.status();
          ASSERT_EQ(kFileSize, read.value());
          // Byte-correctness regardless of serving tier.
          ASSERT_EQ(static_cast<char>('A' + i % 26),
                    static_cast<char>(buf[0]));
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  std::shared_ptr<storage::MemoryEngine> pfs_;
  std::vector<storage::StorageEnginePtr> cache_engines_;
  std::unique_ptr<Monarch> monarch_;
};

TEST_P(PlacementPropertyTest, InvariantsHoldAfterTwoEpochs) {
  RunEpoch();
  monarch_->DrainPlacements();
  RunEpoch();
  monarch_->DrainPlacements();

  const auto stats = monarch_->Stats();
  const auto snapshot = monarch_->metadata().Snapshot();
  const int pfs_level = monarch_->hierarchy().pfs_level();

  // INVARIANT 1: no tier ever exceeds its quota.
  for (int level = 0; level < pfs_level; ++level) {
    const auto& tier = monarch_->hierarchy().Level(level);
    EXPECT_LE(tier.occupancy_bytes(), tier.quota_bytes())
        << "tier " << level;
  }

  // INVARIANT 2: every file is in a consistent terminal state, and its
  // chunk map agrees with that state: a placed file's chunks sit on a
  // cache tier, any other file has none resident.
  std::uint64_t placed_bytes = 0;
  for (const auto& entry : snapshot) {
    const FileInfoPtr info = monarch_->metadata().Lookup(entry.name);
    ASSERT_NE(nullptr, info) << entry.name;
    const pack::ChunkMap* cm = info->chunk_map();
    switch (entry.state) {
      case PlacementState::kPlaced:
        ASSERT_NE(nullptr, cm) << entry.name;
        EXPECT_GE(cm->tier(), 0) << entry.name;
        EXPECT_LT(cm->tier(), pfs_level) << entry.name;
        EXPECT_GT(cm->ResidentCount(), 0u) << entry.name;
        placed_bytes += entry.size;
        break;
      case PlacementState::kUnplaceable:
      case PlacementState::kPfsOnly:
        EXPECT_TRUE(cm == nullptr || cm->ResidentCount() == 0) << entry.name;
        break;
    }
  }

  // INVARIANT 3: occupancy accounting equals the bytes actually placed.
  std::uint64_t total_occupancy = 0;
  for (int level = 0; level < pfs_level; ++level) {
    total_occupancy += monarch_->hierarchy().Level(level).occupancy_bytes();
  }
  EXPECT_EQ(placed_bytes, total_occupancy);
  EXPECT_EQ(placed_bytes, stats.placement.bytes_staged);

  // INVARIANT 4: no evictions under the paper's policy.
  EXPECT_EQ(0u, stats.placement.evictions);

  // INVARIANT 5: placement terminates — scheduled == completed +
  // rejected + failed, with no failures on the memory backend.
  EXPECT_EQ(stats.placement.scheduled,
            stats.placement.completed + stats.placement.rejected_no_space);
  EXPECT_EQ(0u, stats.placement.failed);

  // INVARIANT 6: when the dataset fits entirely, everything placed and
  // epoch 2 issued zero PFS reads; when it does not, the PFS still serves
  // the overflow.
  const auto& param = GetParam();
  if (param.quota_ratio >= 1.1) {
    EXPECT_EQ(static_cast<std::uint64_t>(param.num_files),
              stats.placement.completed);
  } else if (param.quota_ratio < 0.9) {
    EXPECT_GT(stats.placement.rejected_no_space, 0u);
    EXPECT_GT(stats.levels.back().reads,
              static_cast<std::uint64_t>(param.num_files))
        << "epoch 2 must still read unplaced files from the PFS";
  }

  // INVARIANT 7: total reads served == 2 epochs x num_files.
  EXPECT_EQ(static_cast<std::uint64_t>(2 * param.num_files),
            stats.total_reads());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlacementPropertyTest,
    ::testing::Values(
        // Everything fits comfortably (the 100 GiB scenario).
        PropertyCase{2.0, 32, 1, 2, 4},
        PropertyCase{1.5, 64, 1, 6, 8},
        // Roughly half fits (the 200 GiB scenario).
        PropertyCase{0.5, 32, 1, 2, 4},
        PropertyCase{0.5, 64, 2, 6, 8},
        // Tiny cache under heavy thread pressure.
        PropertyCase{0.1, 64, 1, 8, 8},
        PropertyCase{0.25, 48, 3, 4, 6},
        // Single-threaded extremes.
        PropertyCase{1.2, 16, 1, 1, 1},
        PropertyCase{0.3, 16, 2, 1, 1}),
    CaseName);

}  // namespace
}  // namespace monarch::core

// The serve ladder's contract. For every storage layout (loose files of
// one staging chunk or of two and a half, pack mode with and without
// compression) and every rung outcome (cold, warm, corrupt staged copy,
// open tier breaker, copy deleted behind the driver), Read must return
// the PFS bytes, move the expected MonarchStats fallback cause by one,
// and hand the file's eviction read-pin back.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../test_support.h"
#include "core/monarch.h"
#include "pack/chunk_map.h"
#include "storage/faulty_engine.h"
#include "storage/memory_engine.h"
#include "util/clock.h"

namespace monarch::core {
namespace {

using storage::FaultyEngine;
using storage::MemoryEngine;

constexpr std::size_t kFileBytes = 4096;
constexpr std::uint64_t kChunkBytes = 1024;
const std::string kName = "data/f0.bin";

enum class Layout { kLoose, kLooseMultiChunk, kPackNone, kPackLz };

/// kLooseMultiChunk's staging chunk: the file is 2.5 chunks.
constexpr std::uint64_t kStagingChunkBytes = kFileBytes * 2 / 5;
enum class Scenario { kCold, kWarm, kCorrupt, kBreakerOpen, kDeleted };

/// Fallback tallies in MonarchStats order: circuit_open, tier_error,
/// corruption, peer_miss, peer_error.
using Fallbacks = std::array<std::uint64_t, 5>;

Fallbacks FallbacksOf(const MonarchStats& s) {
  return {s.fallbacks_circuit_open, s.fallbacks_tier_error,
          s.fallbacks_corruption, s.fallbacks_peer_miss,
          s.fallbacks_peer_error};
}

/// The PFS copy of kName. Run-structured, so the lz codec has something
/// to compress.
std::vector<std::byte> Oracle() {
  std::vector<std::byte> payload(kFileBytes);
  for (std::size_t b = 0; b < kFileBytes; ++b) {
    payload[b] = static_cast<std::byte>((b / 48 * 37) & 0xff);
  }
  return payload;
}

/// One Monarch over a memory PFS and one cache tier whose engine can be
/// taken down (`faulty`) or edited behind the driver's back (`local`).
struct World {
  std::shared_ptr<MemoryEngine> local;
  std::shared_ptr<FaultyEngine> faulty;
  std::unique_ptr<Monarch> monarch;
  Layout layout = Layout::kLoose;

  /// The tier objects holding the staged copy of kName: one per staging
  /// chunk without pack mode; in pack mode the whole-file read stages
  /// all of its chunks as one run object.
  [[nodiscard]] std::vector<std::string> StagedObjects() const {
    if (layout != Layout::kLooseMultiChunk) {
      return {pack::ChunkObjectName(kName, 0)};
    }
    return {pack::ChunkObjectName(kName, 0), pack::ChunkObjectName(kName, 1),
            pack::ChunkObjectName(kName, 2)};
  }
};

World Build(Layout layout) {
  World world;
  world.layout = layout;
  auto pfs = std::make_shared<MemoryEngine>("pfs");
  EXPECT_OK(pfs->Write(kName, Oracle()));
  world.local = std::make_shared<MemoryEngine>("local");
  world.faulty =
      std::make_shared<FaultyEngine>(world.local, FaultyEngine::FaultSpec{});

  MonarchConfig config;
  config.cache_tiers.push_back(
      TierSpec{"local", world.faulty, /*quota_bytes=*/1ull << 20});
  config.pfs = TierSpec{"pfs", std::move(pfs), 0};
  config.dataset_dir = "data";
  config.placement.num_threads = 2;
  if (layout == Layout::kLooseMultiChunk) {
    config.placement.staging_chunk_bytes = kStagingChunkBytes;
  }
  config.placement.pack.enabled =
      layout == Layout::kPackNone || layout == Layout::kPackLz;
  config.placement.pack.chunk_bytes = kChunkBytes;
  config.placement.pack.codec = layout == Layout::kPackLz ? "lz" : "none";
  config.resilience.verify_on_read = true;
  // One attempt per read, and a breaker that stays open once tripped.
  config.resilience.retry.max_attempts = 1;
  config.resilience.health.window = 8;
  config.resilience.health.min_samples = 4;
  config.resilience.health.cooldown = Millis(60'000);
  auto monarch = Monarch::Create(std::move(config));
  EXPECT_OK(monarch);
  if (monarch.ok()) world.monarch = std::move(monarch).value();
  return world;
}

/// Put the world into `scenario` just before the measured read.
void Arrange(World& world, Scenario scenario) {
  if (scenario == Scenario::kCold) return;
  std::vector<std::byte> buf(kFileBytes);
  ASSERT_OK(world.monarch->Read(kName, 0, buf));
  world.monarch->DrainPlacements();
  for (const std::string& object : world.StagedObjects()) {
    ASSERT_TRUE(world.local->FileSize(object).ok()) << object;
  }
  switch (scenario) {
    case Scenario::kCorrupt: {
      const std::string object = world.StagedObjects().front();
      const auto size = world.local->FileSize(object);
      ASSERT_OK(size);
      ASSERT_OK(world.local->Write(
          object, std::vector<std::byte>(size.value(), std::byte{0x5C})));
      break;
    }
    case Scenario::kBreakerOpen: {
      world.faulty->FailUntilHealed();
      StorageDriver& tier = world.monarch->hierarchy().Level(0);
      for (int i = 0;
           i < 64 && tier.health().state() != CircuitState::kOpen; ++i) {
        (void)tier.Read(kName, 0, buf);
      }
      ASSERT_EQ(CircuitState::kOpen, tier.health().state());
      break;
    }
    case Scenario::kDeleted:
      for (const std::string& object : world.StagedObjects()) {
        ASSERT_OK(world.local->Delete(object));
      }
      break;
    default:
      break;
  }
}

struct Outcome {
  std::vector<std::byte> bytes;
  int level = -1;  ///< hierarchy level that served the read
};

/// The measured read, and the level that served it. Also checks that
/// the read hands its pin back.
Outcome Measure(World& world) {
  Outcome out;
  const FileInfoPtr info = world.monarch->metadata().Lookup(kName);
  EXPECT_TRUE(info != nullptr);
  if (info == nullptr) return out;
  const MonarchStats before = world.monarch->Stats();
  out.bytes.resize(kFileBytes);
  auto read = world.monarch->Read(kName, 0, out.bytes);
  EXPECT_OK(read);
  out.bytes.resize(read.ok() ? read.value() : 0);
  const MonarchStats after = world.monarch->Stats();
  for (std::size_t l = 0; l < after.levels.size(); ++l) {
    if (after.levels[l].reads != before.levels[l].reads) {
      out.level = static_cast<int>(l);
    }
  }
  EXPECT_EQ(0, info->read_pins.load());
  return out;
}

TEST(ReadLadderTest, EveryRungServesOracleBytes) {
  const std::vector<std::byte> oracle = Oracle();
  for (const Layout layout : {Layout::kLoose, Layout::kLooseMultiChunk,
                              Layout::kPackNone, Layout::kPackLz}) {
    for (const Scenario scenario :
         {Scenario::kCold, Scenario::kWarm, Scenario::kCorrupt,
          Scenario::kBreakerOpen, Scenario::kDeleted}) {
      SCOPED_TRACE(::testing::Message()
                   << "layout " << static_cast<int>(layout) << " scenario "
                   << static_cast<int>(scenario));
      World world = Build(layout);
      ASSERT_TRUE(world.monarch != nullptr);
      Arrange(world, scenario);
      if (::testing::Test::HasFatalFailure()) return;

      const Fallbacks before = FallbacksOf(world.monarch->Stats());
      const Outcome out = Measure(world);
      const Fallbacks after = FallbacksOf(world.monarch->Stats());

      // The bytes are the PFS oracle's, the whole file.
      EXPECT_EQ(oracle, out.bytes);

      // Only a warm copy is served by the tier (level 0); every other
      // rung lands on the PFS (level 1).
      EXPECT_EQ(scenario == Scenario::kWarm ? 0 : 1, out.level);

      Fallbacks moved{};
      for (std::size_t i = 0; i < moved.size(); ++i) {
        moved[i] = after[i] - before[i];
      }
      Fallbacks expected{};
      if (scenario == Scenario::kBreakerOpen) expected[0] = 1;
      if (scenario == Scenario::kCorrupt) expected[2] = 1;
      EXPECT_EQ(expected, moved);
    }
  }
}

TEST(ReadLadderTest, CreateRejectsPackModeWithPeerTier) {
  auto pfs = std::make_shared<MemoryEngine>("pfs");
  ASSERT_OK(pfs->Write(kName, Oracle()));
  MonarchConfig config;
  config.cache_tiers.push_back(
      TierSpec{"local", std::make_shared<MemoryEngine>("local"), 1ull << 20});
  config.pfs = TierSpec{"pfs", std::move(pfs), 0};
  config.peer_tier =
      TierSpec{"peer", std::make_shared<MemoryEngine>("peer"), 0};
  config.dataset_dir = "data";
  config.placement.pack.enabled = true;
  const auto monarch = Monarch::Create(std::move(config));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, monarch);
  const std::string message = monarch.status().ToString();
  EXPECT_NE(std::string::npos, message.find("pack")) << message;
  EXPECT_NE(std::string::npos, message.find("peer")) << message;
}

}  // namespace
}  // namespace monarch::core
